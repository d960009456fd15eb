"""Framework shared by all simulated benchmark applications."""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable

from repro.omp.runtime import OffloadRuntime

#: A runnable program: a callable that drives an offload runtime.
Program = Callable[[OffloadRuntime], None]


class ProblemSize(enum.Enum):
    """The three input classes used throughout the evaluation (Table 5)."""

    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"

    @classmethod
    def parse(cls, text: str) -> "ProblemSize":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown problem size {text!r}; expected one of "
                f"{', '.join(s.value for s in cls)}"
            ) from None


class AppVariant(enum.Enum):
    """Application variants used in the evaluation."""

    BASELINE = "baseline"
    FIXED = "fixed"
    SYNTHETIC = "synthetic"

    @classmethod
    def parse(cls, text: str) -> "AppVariant":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown variant {text!r}; expected one of "
                f"{', '.join(v.value for v in cls)}"
            ) from None


@dataclass(frozen=True)
class AppInfo:
    """Static description of an application (Table 5 row)."""

    name: str
    domain: str
    suite: str
    description: str
    inputs: dict[ProblemSize, str]


class BenchmarkApp(abc.ABC):
    """Base class for simulated benchmark applications.

    Subclasses implement :meth:`build_program` for the variants they support
    and describe their inputs through :meth:`info`.  The experiment harness
    only ever interacts with applications through this interface.
    """

    #: registry name, e.g. ``"bfs"``
    name: str = "abstract"
    #: application domain, e.g. ``"Graph Algorithms"`` (Table 5 column)
    domain: str = ""
    #: originating suite, e.g. ``"Rodinia"``
    suite: str = ""
    #: one-line description used in reports
    description: str = ""

    @abc.abstractmethod
    def parameters(self, size: ProblemSize) -> dict:
        """Problem parameters for a given input size (array sizes, iterations)."""

    @abc.abstractmethod
    def build_program(self, size: ProblemSize, variant: AppVariant) -> Program:
        """Return the runnable program for ``(size, variant)``.

        Raises :class:`ValueError` for unsupported variants.
        """

    # ------------------------------------------------------------------ #
    def supported_variants(self) -> tuple[AppVariant, ...]:
        """The variants this application implements (baseline always exists)."""
        supported = [AppVariant.BASELINE]
        for variant in (AppVariant.FIXED, AppVariant.SYNTHETIC):
            try:
                self.build_program(ProblemSize.SMALL, variant)
            except ValueError:
                continue
            supported.append(variant)
        return tuple(supported)

    def supports_variant(self, variant: AppVariant) -> bool:
        return variant in self.supported_variants()

    def input_description(self, size: ProblemSize) -> str:
        """Human-readable input string (the Table 5 cell)."""
        params = self.parameters(size)
        return " ".join(f"{key}={value}" for key, value in params.items())

    def info(self) -> AppInfo:
        return AppInfo(
            name=self.name,
            domain=self.domain,
            suite=self.suite,
            description=self.description,
            inputs={size: self.input_description(size) for size in ProblemSize},
        )

    def program_name(self, size: ProblemSize, variant: AppVariant) -> str:
        suffix = "" if variant is AppVariant.BASELINE else f" ({variant.value})"
        return f"{self.name}{suffix} [{size.value}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


def unsupported_variant(app_name: str, variant: AppVariant) -> ValueError:
    """Consistent error for variants an application does not provide."""
    return ValueError(f"{app_name} does not provide a {variant.value!r} variant")
