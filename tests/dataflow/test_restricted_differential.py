"""Differential test: the style-restricted mapper against a scalar oracle.

``map_layer_with_style`` picks each side's factors from the batched
candidate arrays with ``np.argmin``.  The oracle below enumerates with the
nested ``iter_triples`` loop of ``tests/dse_oracle.py``, derives the
style's caps from the style's own flags, and picks with
``min(key=(steps, triple))``.  Both must choose the same factors for all
eight processing styles.

Generated layers cover 1x1 kernels, a kernel as large as the input (one
output neuron), prime channel counts, and runs with and without a
``tr_tc_bound``, on arrays from ``D = 1`` to ``D = 64``.  Without a
profile flag the property runs a small derandomized slice;
``--hypothesis-profile=ci`` (registered in ``tests/conftest.py``)
switches to that profile's larger random budget.
"""

from hypothesis import example, given, settings, strategies as st

from repro.dataflow.restricted import map_layer_with_style
from repro.dataflow.styles import ProcessingStyle
from repro.dataflow.unrolling import UnrollingFactors
from repro.nn.layers import ConvLayer
from tests import dse_oracle as oracle

PRIMES = (2, 3, 5, 7, 11, 13, 31, 97)

if settings.get_current_profile_name() == "default":
    budget = settings(max_examples=40, derandomize=True, deadline=None)
else:
    budget = settings(deadline=None)

channels = st.one_of(
    st.integers(min_value=1, max_value=64), st.sampled_from(PRIMES)
)


@st.composite
def layers(draw):
    shape = draw(st.sampled_from(("1x1", "kernel==input", "general")))
    if shape == "1x1":
        kernel, out_size = 1, draw(st.integers(min_value=1, max_value=56))
    elif shape == "kernel==input":
        kernel, out_size = draw(st.integers(min_value=1, max_value=13)), 1
    else:
        kernel = draw(st.integers(min_value=1, max_value=11))
        out_size = draw(st.integers(min_value=1, max_value=56))
    return ConvLayer(
        "L",
        in_maps=draw(channels),
        out_maps=draw(channels),
        out_size=out_size,
        kernel=kernel,
    )


def oracle_factors(layer, array_dim, style, tr_tc_bound):
    """The scalar pick: every style-capped triple, first by steps, then
    lexicographically."""
    fp = style.multi_feature_map
    np_ = style.multi_neuron
    sp = style.multi_synapse
    out_bound = layer.out_size if tr_tc_bound is None else min(
        layer.out_size, tr_tc_bound
    )
    in_dims = oracle.in_dims(layer)
    out_dims = oracle.out_dims(layer)
    synapse_cap = layer.kernel if sp else 1
    neuron_cap = min(layer.out_size if np_ else 1, out_bound)
    in_caps = (layer.in_maps if fp else 1, synapse_cap, synapse_cap)
    out_caps = (layer.out_maps if fp else 1, neuron_cap, neuron_cap)
    ins = sorted(set(oracle.iter_triples(in_dims, array_dim, in_caps)))
    outs = sorted(set(oracle.iter_triples(out_dims, array_dim, out_caps)))
    tn, ti, tj = min(ins, key=lambda t: (oracle.steps(in_dims, t), t))
    tm, tr, tc = min(outs, key=lambda t: (oracle.steps(out_dims, t), t))
    return UnrollingFactors(tm=tm, tn=tn, tr=tr, tc=tc, ti=ti, tj=tj)


@budget
@given(
    layer=layers(),
    array_dim=st.integers(min_value=1, max_value=64),
    tr_tc_bound=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
)
@example(
    layer=ConvLayer("fc", in_maps=97, out_maps=31, out_size=1, kernel=11),
    array_dim=16,
    tr_tc_bound=None,
)
@example(
    layer=ConvLayer("pw", in_maps=13, out_maps=7, out_size=28, kernel=1),
    array_dim=64,
    tr_tc_bound=6,
)
@example(
    layer=ConvLayer("one-pe", in_maps=5, out_maps=3, out_size=9, kernel=3),
    array_dim=1,
    tr_tc_bound=2,
)
def test_matches_scalar_oracle(layer, array_dim, tr_tc_bound):
    for style in ProcessingStyle:
        mapping = map_layer_with_style(
            layer, array_dim, style, tr_tc_bound=tr_tc_bound
        )
        expected = oracle_factors(layer, array_dim, style, tr_tc_bound)
        assert mapping.factors == expected, style
        assert mapping.compute_cycles == oracle.steps(
            oracle.in_dims(layer), (expected.tn, expected.ti, expected.tj)
        ) * oracle.steps(
            oracle.out_dims(layer), (expected.tm, expected.tr, expected.tc)
        )
