"""Positive scalar weight profiles (alpha, beta, gamma, f/F, warp laws).

A profile is either constant, a power law (pivot - t)^(-lam) in the axis-0
coordinate, a 1-D table over t, or a full-grid table tied to one domain.
Power laws keep their exponent symbolic, so _interp.powerlaw_mass can
decide their integrability exactly instead of by overflowing quadrature.
Profiles are immutable: no attribute can be reassigned and no array
written through the profile.  A 1-D table holds read-only copies, so a
t-only profile's tail law (vanishing._tail_law) is a pure function of
it, memoised under the profile itself: a profile hashes by identity and
is held weakly there.  A full-grid table is a read-only view of the
caller's samples, so it keeps no second grid in memory.
"""

import numpy as np

KINDS = ("constant", "powerlaw", "sampled-t", "sampled")


def _read_only_array(values, copy):
    """values as a read-only float array: a copy, or a view of the
    caller's array, which stays writable."""
    arr = np.array(values, dtype=float) if copy else np.asarray(values, dtype=float).view()
    arr.flags.writeable = False
    return arr


class WeightProfile:
    def __init__(self, kind, value=None, lam=None, pivot=None, tcoords=None, samples=None):
        if kind not in KINDS:
            raise ValueError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.value = None if value is None else float(value)
        self.lam = None if lam is None else float(lam)
        self.pivot = None if pivot is None else float(pivot)
        self.tcoords = None if tcoords is None else _read_only_array(tcoords, copy=True)
        self.samples = (None if samples is None
                        else _read_only_array(samples, copy=kind != "sampled"))
        if kind == "constant":
            if self.value is None or self.value <= 0:
                raise ValueError("constant weight must be positive")
        elif kind == "powerlaw":
            if self.lam is None or self.pivot is None:
                raise ValueError("power law needs lam and pivot")
        elif kind == "sampled-t":
            if self.tcoords is None or self.samples is None:
                raise ValueError("sampled-t needs tcoords and samples")
            if self.samples.shape != self.tcoords.shape or self.samples.ndim != 1:
                raise ValueError("tcoords/samples must be matching 1-D arrays")
            # written so a NaN coordinate fails: every comparison with it is False
            if not (np.diff(self.tcoords) > 0).all():
                raise ValueError("tcoords must be strictly increasing")
            if not (self.samples > 0).all():
                raise ValueError("weight samples must be positive")
        elif kind == "sampled":
            if self.samples is None:
                raise ValueError("sampled weight needs samples")
            if not (self.samples > 0).all():
                raise ValueError("weight samples must be positive")
        self._frozen = True

    def __setattr__(self, name, value):
        if "_frozen" in self.__dict__:
            raise AttributeError("WeightProfile is immutable")
        super().__setattr__(name, value)

    @classmethod
    def constant(cls, value):
        return cls("constant", value=value)

    @classmethod
    def powerlaw(cls, lam, pivot):
        """(pivot - t)^(-lam); singular at t -> pivot when lam > 0."""
        return cls("powerlaw", lam=lam, pivot=pivot)

    @classmethod
    def sampled_t(cls, tcoords, samples):
        return cls("sampled-t", tcoords=tcoords, samples=samples)

    @classmethod
    def sampled(cls, samples):
        return cls("sampled", samples=samples)

    @property
    def t_only(self):
        return self.kind in ("constant", "powerlaw", "sampled-t")

    def eval_t(self, t):
        """Evaluate a t-only profile on an array of t values."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full(t.shape, self.value)
        if self.kind == "powerlaw":
            gap = self.pivot - t
            # at the pivot the law is bounded when lam <= 0
            if (gap < 0).any() or (self.lam > 0 and (gap == 0).any()):
                raise ValueError("power-law weight evaluated past its pivot, or at a singular one")
            return gap**-self.lam
        if self.kind == "sampled-t":
            return np.interp(t, self.tcoords, self.samples)
        raise ValueError("full-grid weight is not a function of t alone")

    def sample_on(self, domain):
        """Sample on a domain grid (t-only profiles broadcast over the fiber)."""
        if self.kind == "sampled":
            if self.samples.shape != domain.grid:
                raise ValueError(
                    f"weight grid {self.samples.shape} != domain grid {domain.grid}"
                )
            return self.samples
        vals = self.eval_t(domain.axis_coords(0))
        shape = [1] * domain.dim
        shape[0] = -1
        return vals.reshape(shape) * np.ones(domain.grid)

    def __pow__(self, e):
        e = float(e)
        if self.kind == "constant":
            return WeightProfile.constant(self.value**e)
        if self.kind == "powerlaw":
            return WeightProfile.powerlaw(self.lam * e, self.pivot)
        if self.kind == "sampled-t":
            return WeightProfile.sampled_t(self.tcoords, self.samples**e)
        return WeightProfile.sampled(self.samples**e)

    def to_dict(self):
        d = {"kind": self.kind}
        if self.kind == "constant":
            d["value"] = self.value
        elif self.kind == "powerlaw":
            d["lam"] = self.lam
            d["pivot"] = self.pivot
        elif self.kind == "sampled-t":
            d["t"] = self.tcoords.tolist()
            d["values"] = self.samples.tolist()
        else:
            d["values"] = self.samples.ravel().tolist()
            d["shape"] = list(self.samples.shape)
        return d

    @classmethod
    def from_dict(cls, d):
        kind = d["kind"]
        if kind == "constant":
            return cls.constant(d["value"])
        if kind == "powerlaw":
            return cls.powerlaw(d["lam"], d["pivot"])
        if kind == "sampled-t":
            return cls.sampled_t(d["t"], d["values"])
        samples = np.asarray(d["values"], dtype=float)
        if "shape" in d:
            samples = samples.reshape(d["shape"])
        return cls.sampled(samples)

    def __repr__(self):
        if self.kind == "constant":
            return f"WeightProfile.constant({self.value})"
        if self.kind == "powerlaw":
            return f"WeightProfile(({self.pivot} - t)^(-{self.lam}))"
        return f"WeightProfile({self.kind}, n={self.samples.size})"
