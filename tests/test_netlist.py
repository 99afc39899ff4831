import pathlib
import runpy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sfqsim import data
from sfqsim.netlist import (
    SUFFIX_EXPONENTS,
    Inductor,
    Junction,
    NetlistError,
    flatten,
    lint,
    parse_netlist,
    parse_value,
)

MINIMAL = """
B1 1 0 jmod
R1 1 0 5
Ib 0 1 pwl(0 0 50p 150u)
.model jmod jj(icrit=100u)
.tran 0.1p 100p
"""


def test_parse_inductor_value():
    n = parse_netlist("L1 1 2 2.09p\nR1 2 0 1\nR2 1 0 1")
    ind = n.element("L1")
    assert isinstance(ind, Inductor)
    assert ind.pos == "1" and ind.neg == "2"
    assert ind.value == 2.09e-12


def test_parse_junction_with_model():
    n = parse_netlist("B1 3 0 jmod\nR1 3 0 2\n.model jmod jj(icrit=170u)")
    assert isinstance(n.element("B1"), Junction)
    assert n.models["jmod"].icrit == 170e-6


def test_empty_input_is_an_error():
    with pytest.raises(NetlistError, match="no elements"):
        parse_netlist("")
    with pytest.raises(NetlistError, match="no elements"):
        parse_netlist("* only a comment\n\n")


def test_unknown_model_reference():
    with pytest.raises(NetlistError, match="unknown model"):
        parse_netlist("B1 1 0 nope\nR1 1 0 5")


def test_duplicate_element_name():
    with pytest.raises(NetlistError, match="duplicate element"):
        parse_netlist("R1 1 0 5\nr1 1 0 5")


def test_non_positive_value_rejected():
    with pytest.raises(NetlistError, match="non-positive"):
        parse_netlist("R1 1 0 0")
    with pytest.raises(NetlistError, match="non-positive"):
        parse_netlist("L1 1 0 -2p")


def test_syntax_error_carries_line_number():
    with pytest.raises(NetlistError, match="line 3"):
        parse_netlist("R1 1 0 5\nR2 1 0 5\nL3 1 2\n")


def test_title_line_is_kept():
    n = parse_netlist("my test circuit\nR1 1 0 5\nR2 1 0 5")
    assert n.title == "my test circuit"


def test_case_insensitive_keys_and_comments():
    n = parse_netlist(
        "* comment\n# another\n"
        "b1 1 0 JMOD  # trailing note\n"
        "r1 1 0 5\n"
        ".MODEL jmod JJ(ICRIT=100u)\n"
        ".TRAN 1p 50p\n"
    )
    assert isinstance(n.element("b1"), Junction)
    assert n.tran is not None


def test_source_specs():
    n = parse_netlist(
        "I1 0 1 dc 1m\nI2 0 1 pwl(0 0 10p 5u)\nI3 0 1 pulse(10p 500u 4p)\nR1 1 0 5"
    )
    # dc and pulse are shorthands for PWL points
    assert n.element("I1").points == ((0.0, 1e-3),)
    assert n.element("I2").points == ((0.0, 0.0), (10e-12, 5e-6))
    t0, width = 10e-12, 4e-12
    assert n.element("I3").points == ((t0, 0.0), (t0 + width / 2, 500e-6), (t0 + width, 0.0))


def test_pwl_times_strictly_increasing():
    with pytest.raises(NetlistError, match="strictly increasing"):
        parse_netlist("I1 0 1 pwl(0 0 10p 1u 10p 2u)\nR1 1 0 5")


def test_tran_bounds_validation():
    with pytest.raises(NetlistError, match="start < stop"):
        parse_netlist("R1 1 0 5\nR2 1 0 1\n.tran 1p 10p 20p")
    with pytest.raises(NetlistError, match="step < stop"):
        parse_netlist("R1 1 0 5\nR2 1 0 1\n.tran 20p 10p")


@given(
    mantissa=st.decimals(
        min_value="0.001", max_value="999", places=3, allow_nan=False
    ),
    suffix=st.sampled_from(sorted(SUFFIX_EXPONENTS)),
)
def test_suffix_parsing_is_exact(mantissa, suffix):
    # the parse must land on the float nearest the suffixed decimal literal
    text = f"{mantissa}{suffix}"
    assert parse_value(text) == float(f"{mantissa}e{SUFFIX_EXPONENTS[suffix]}")


def test_non_finite_values_rejected():
    with pytest.raises(NetlistError, match="not finite"):
        parse_value("1e400")
    with pytest.raises(NetlistError, match="line 3: value '1e400' is not finite"):
        parse_netlist("R1 1 0 5\nR2 1 0 1\n.tran 0.1p 1e400")


def test_suffix_examples():
    assert parse_value("2.28p") == 2.28e-12
    assert parse_value("2.09p") == 2.09e-12
    assert parse_value("170u") == 170e-6
    assert parse_value("7.2") == 7.2
    assert parse_value("3meg") == 3e6
    assert parse_value("1.5e-3m") == 1.5e-6


# --- flatten -----------------------------------------------------------------


def test_flatten_identity_without_subcircuits():
    n = parse_netlist(MINIMAL)
    flat = flatten(n)
    assert flat.elements == n.elements


def test_flatten_expands_instances_with_paths():
    src = """
.model jm jj(icrit=100u)
.subckt cell a
B1 a 0 jm
B2 a 0 jm
.ends
X1 p cell
X2 p cell
R1 p 0 5
"""
    flat = flatten(parse_netlist(src))
    junctions = [e.name for e in flat.elements if isinstance(e, Junction)]
    assert sorted(junctions) == ["X1.B1", "X1.B2", "X2.B1", "X2.B2"]
    assert all(e.pos in ("p", "0") or e.neg in ("p", "0") for e in flat.elements)


def test_element_names_match_exactly_then_by_unique_suffix():
    src = """
.model jm jj(icrit=100u)
.subckt cell a
B1 a 0 jm
L2 a 0 2p
.ends
X1 p cell
X2 q cell
B1 p 0 jm
"""
    flat = flatten(parse_netlist(src))
    assert flat.element("b1").name == "B1"  # an exact match wins over a suffix
    assert flat.element("x2.b1").name == "X2.B1"
    with pytest.raises(NetlistError, match=r"'L2' is ambiguous: X1\.L2, X2\.L2"):
        flat.element("L2")
    with pytest.raises(NetlistError, match="'B9' matches nothing"):
        flat.element("B9")


def test_flatten_recursion_error():
    src = """
.subckt loop a
X1 a loop
R1 a 0 1
.ends
X0 n loop
R0 n 0 1
"""
    with pytest.raises(NetlistError, match="recursive"):
        flatten(parse_netlist(src))


def test_flatten_arity_mismatch():
    src = """
.subckt cell a b
R1 a b 1
.ends
X1 n cell
R2 n 0 1
"""
    with pytest.raises(NetlistError, match="ports"):
        flatten(parse_netlist(src))


@given(n_inner=st.integers(1, 5), n_inst=st.integers(1, 4))
def test_flatten_is_size_monotone(n_inner, n_inst):
    body = "\n".join(f"R{i} a 0 {i + 1}" for i in range(n_inner))
    insts = "\n".join(f"X{i} top cell" for i in range(n_inst))
    src = f".subckt cell a\n{body}\n.ends\n{insts}\nRtop top 0 1\n"
    n = parse_netlist(src)
    flat = flatten(n)
    assert len(flat.elements) == n_inner * n_inst + 1
    assert len(flat.nodes()) >= len(n.nodes())


# --- lint ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["mcg_tb.cir", "ndro_cell_tb.cir", "mndro_cell_tb.cir"]
)
def test_shipped_testbenches_lint_clean(name):
    assert lint(parse_netlist(data.load_text(name))) == []


def test_shipped_testbenches_match_their_generator():
    # run_path does not run the script's main, so nothing is written
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "make_testbenches.py"
    files = runpy.run_path(str(script))["FILES"]
    shipped = pathlib.Path(data.__file__).parent
    assert sorted(files) == sorted(p.name for p in shipped.glob("*.cir"))
    for name, text in files.items():
        assert (shipped / name).read_bytes() == text.encode("utf-8"), name


def test_dangling_node_is_an_error():
    diags = lint(parse_netlist("L1 1 2 2p\nR1 1 0 5\n.tran 1p 10p"))
    assert any(d.code == "dangling-node" and d.severity == "error" for d in diags)


def test_unused_model_is_a_warning():
    diags = lint(
        parse_netlist("R1 1 0 5\nR2 1 0 1\n.model jm jj(icrit=1u)\n.tran 1p 10p")
    )
    assert any(d.code == "unused-model" and d.severity == "warn" for d in diags)


def test_missing_tran_is_a_warning():
    diags = lint(parse_netlist("R1 1 0 5\nR2 1 0 1"))
    assert any(d.code == "missing-tran" for d in diags)


def test_floating_junction_detected():
    src = """
.model jm jj(icrit=100u)
B1 1 2 jm
I1 0 1 dc 1u
I2 2 0 dc 1u
R1 5 0 1
R2 5 0 2
.tran 1p 10p
"""
    diags = lint(parse_netlist(src))
    assert any(d.code == "floating-junction" for d in diags)


def test_hard_dc_step_warns():
    diags = lint(parse_netlist("R1 1 0 5\nI1 0 1 dc 10u\n.tran 1p 10p"))
    assert any(d.code == "hard-dc-step" for d in diags)
