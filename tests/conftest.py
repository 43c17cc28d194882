import numpy as np

from landscape_lab.disorder import DisorderLaw, OmegaField, bernoulli


def omega_from_values(values, law=None, master_seed=0, sample_index=0):
    """A field with every site set to explicit values, over the keyed draws
    (for deterministic cases)."""
    values = np.asarray(values, dtype=float)
    return OmegaField(box=values.shape, law=law if law is not None else bernoulli(0.5),
                      master_seed=master_seed, sample_index=sample_index,
                      sites=tuple(enumerate(values.ravel().tolist())))
