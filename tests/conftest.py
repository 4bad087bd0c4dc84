import pytest

from clonebench import entangled, equatorial, optimize


@pytest.fixture
def seed_builds(monkeypatch):
    """The N of every seed spectrum built while the test runs: qubit outcome
    densities, in each namespace that binds the function (as a tracer patches
    it), and entangled seed squares."""
    built = []

    def spy(build):
        def counted(n_copies):
            built.append(n_copies)
            return build(n_copies)

        return counted

    density = spy(equatorial.outcome_density_fourier)
    monkeypatch.setattr(equatorial, "outcome_density_fourier", density)
    monkeypatch.setattr(optimize, "outcome_density_fourier", density)
    monkeypatch.setattr(entangled, "seed_char_square", spy(entangled.seed_char_square))
    return built
