"""Helpers shared across test modules."""

from dataclasses import replace

import numpy as np

from hypocert.expressions import parse_expr
from hypocert.fields import (
    DEFAULT_FD_SCALE,
    ExprMetricField,
    ExprScalarField,
    FDField,
)
from hypocert.models import ModelSpec


def expr_model_1d(g11, E, v1="p1", theta=None):
    """One-dimensional expression model for targeted scenarios."""
    return ModelSpec(
        name="test1d",
        dim=1,
        metric_field=ExprMetricField({(0, 0): parse_expr(g11)}, 1, theta=theta),
        v_fields=(ExprScalarField(parse_expr(v1), 1, theta=theta),),
        energy_field=ExprScalarField(parse_expr(E), 1, theta=theta),
        theta=theta,
    )


def fd_model(model, h_scale=DEFAULT_FD_SCALE):
    """The same model differenced: each field's values in an FDField."""
    def fd(field):
        return FDField(field.value, model.dim, h_scale)

    return replace(
        model,
        metric_field=fd(model.metric_field),
        v_fields=tuple(map(fd, model.v_fields)),
        energy_field=fd(model.energy_field),
    )


def rel_points(n, radius=3.0, seed=5, dim=3):
    """Quasi-uniform random points in the ball of the given radius."""
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(n, dim))
    P *= (radius * rng.random(n) ** (1.0 / dim) / np.linalg.norm(P, axis=1))[:, None]
    return P
