import math

import pytest

from pathrev import density
from pathrev.density import DensityFlow


class _FlooredLaw:
    """A Gaussian slice law whose score is trusted only above the relative
    floor, as a KdeModel's is.  max_pdf is the Gaussian's peak in closed form."""

    def __init__(self, law):
        self._law = law

    def __getattr__(self, name):
        return getattr(self._law, name)

    @property
    def max_pdf(self) -> float:
        return math.exp(-0.5 * (self._law.dim * math.log(2.0 * math.pi) + self._law._logdet))

    def trusted(self, p):
        return p >= density._FLOOR_REL * self.max_pdf


@pytest.fixture
def floored(monkeypatch):
    """floored(flow, floor_rel) is a DensityFlow over the Gaussian flow whose
    scores are trusted where pdf >= floor_rel * max_pdf.  The floor is the
    module's, so it holds for every density built with this fixture until
    the next call sets another."""

    def make(flow, floor_rel: float) -> DensityFlow:
        monkeypatch.setattr(density, "_FLOOR_REL", floor_rel)
        return DensityFlow(lambda t: _FlooredLaw(flow.at(t)), flow.dim)

    return make
