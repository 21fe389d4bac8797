import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hspan.cli as cli
import hspan.instances as instances
from hspan import (BudgetExceededError, InstanceFormatError, MatrixFamily, PsdFamily,
                   generate_family, instance_dict, load_instance, parse_instance,
                   write_instance)
from hspan.instances import _decode_matrices, _walk_matrices, dump_instance


def test_generate_validates_arguments():
    with pytest.raises(ValueError):
        generate_family(0, 1)
    with pytest.raises(ValueError):
        generate_family(3, 0)
    with pytest.raises(ValueError):
        generate_family(3, 1, kind="banana")
    with pytest.raises(ValueError):
        generate_family(3, 1, rank_deficit=3)
    with pytest.raises(ValueError):
        generate_family(3, 1, rank_deficit=-1)


def test_generate_refuses_oversized_family_before_drawing(monkeypatch):
    with pytest.raises(BudgetExceededError, match="budget is 1000000"):
        generate_family(10**9, 2)  # 3.2e19 bytes: only a preflight can refuse it cleanly
    monkeypatch.setattr(instances, "GEN_ENTRY_BUDGET", 8)
    assert generate_family(2, 2).k == 2
    with pytest.raises(BudgetExceededError, match="k n\\^2 = 9 matrix entries"):
        generate_family(3, 1)
    # k n^2 has more digits than Python's int-to-string limit allows
    with pytest.raises(BudgetExceededError, match=r"^k n\^2 = 1\.00e\+7998 matrix entries, "):
        generate_family(10**3999, 1)


@pytest.mark.parametrize("seed, message", [
    (2**64, "seed must fit in 64 unsigned bits, got 18446744073709551616"),
    (2**70, "seed must fit in 64 unsigned bits, got 1180591620717411303424"),
    (-1, "seed must fit in 64 unsigned bits, got -1"),
    ("5", "seed must be an integer, got '5'"),
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
], ids=["2^64", "2^70", "-1", "str", "float", "bool"])
def test_generate_refuses_seeds_outside_the_rule(seed, message):
    with pytest.raises(ValueError) as info:
        generate_family(2, 1, seed=seed)
    assert str(info.value) == message


def test_generate_takes_numpy_integer_seeds():
    fam = generate_family(3, 2, seed=np.uint64(2**64 - 1))
    ref = generate_family(3, 2, seed=2**64 - 1)
    assert np.array_equal(np.stack(list(fam)).view(np.uint64), np.stack(list(ref)).view(np.uint64))


def test_generate_deterministic_per_seed():
    a = generate_family(4, 2, seed=5)
    b = generate_family(4, 2, seed=5)
    c = generate_family(4, 2, seed=6)
    for ma, mb in zip(a, b):
        np.testing.assert_array_equal(ma, mb)
    assert not np.array_equal(next(iter(a)), next(iter(c)))


def test_generate_members_differ_within_family():
    m1, m2, _ = generate_family(4, 3, seed=1)
    assert not np.array_equal(m1, m2)


def test_generate_general_deficit_zeroes_trailing_columns():
    fam = generate_family(5, 2, rank_deficit=2, seed=2)
    for m in fam:
        np.testing.assert_array_equal(m[:, 3:], np.zeros((5, 2)))
        assert np.linalg.matrix_rank(m) == 3


def test_generate_psd_kind():
    fam = generate_family(5, 2, kind="psd", rank_deficit=2, seed=3)
    assert isinstance(fam, PsdFamily)
    for m in fam:
        assert np.linalg.matrix_rank(m) == 3


def test_round_trip_values_bit_equal(tmp_path):
    fam = generate_family(4, 3, seed=9)
    path = tmp_path / "inst.json"
    write_instance(path, fam, "general")
    loaded, kind = load_instance(path)
    assert kind == "general"
    for ma, mb in zip(fam, loaded):
        np.testing.assert_array_equal(ma, mb)


def test_failing_dump_leaves_files_alone(tmp_path, monkeypatch):
    def dump_fails(family, kind):
        raise MemoryError
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    write_instance(old, generate_family(3, 2, seed=9), "general")
    before = old.read_bytes()
    monkeypatch.setattr(instances, "dump_instance", dump_fails)
    for path in (old, new):
        with pytest.raises(MemoryError):
            write_instance(path, generate_family(2, 1, seed=1), "general")
        err = io.StringIO()
        with redirect_stderr(err):  # gen --out writes through write_instance
            assert cli.main(["gen", "2", "1", "--out", str(path)]) == 3
        assert err.getvalue() == "hspan gen: out of memory\n"
    assert old.read_bytes() == before
    assert not new.exists()


def test_round_trip_bytes_stable():
    fam = generate_family(3, 2, kind="psd", seed=10)
    text = dump_instance(fam, "psd")
    loaded, _ = parse_instance(json.loads(text))
    assert dump_instance(loaded, "psd") == text


@st.composite
def finite_families(draw):
    """A MatrixFamily with n in 1-4, k in 1-3 and any finite float64 parts."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    parts = draw(arrays(np.float64, (k, n, n, 2),
                        elements=st.floats(allow_nan=False, allow_infinity=False)))
    return MatrixFamily(parts.view(np.complex128)[..., 0])


EDGE_FAMILY = MatrixFamily([
    [[complex(-0.0, 5e-324), complex(1e308, -1e308)], [complex(1e-300, -0.0), complex(0.0, -5e-324)]],
    [[complex(1.0, -7.0), complex(2.0**53, 1e16)], [complex(0.0, 3.0), complex(-1e-300, 100.0)]],
])


@settings(max_examples=100, deadline=None)
@given(finite_families(), st.sampled_from(["general", "psd"]))
@example(EDGE_FAMILY, "general")
@example(MatrixFamily([[[-0.0]]]), "general")
@example(generate_family(3, 2, kind="psd", seed=4), "psd")
def test_dump_instance_matches_json_reference(family, kind):
    assert dump_instance(family, kind) == json.dumps(instance_dict(family, kind), indent=2) + "\n"


def test_dump_instance_refuses_unknown_kind():
    fam = generate_family(2, 1, seed=0)
    with pytest.raises(ValueError) as direct:
        dump_instance(fam, "weird")
    with pytest.raises(ValueError) as reference:
        instance_dict(fam, "weird")
    assert str(direct.value) == str(reference.value)


def test_instance_dict_shape():
    fam = generate_family(2, 2, seed=11)
    obj = instance_dict(fam, "general")
    assert set(obj) == {"schema_version", "n", "k", "kind", "matrices"}
    assert obj["n"] == 2 and obj["k"] == 2
    assert len(obj["matrices"]) == 2
    m1 = next(iter(fam))
    assert obj["matrices"][0][0][0] == [m1[0, 0].real, m1[0, 0].imag]


@pytest.mark.parametrize("mutate,msg", [
    (lambda o: o.pop("kind"), "missing"),
    (lambda o: o.update(extra=1), "unknown"),
    (lambda o: o.update(schema_version="9.9"), "schema_version"),
    (lambda o: o.update(n=0), "positive"),
    (lambda o: o.update(k="two"), "positive"),
    (lambda o: o.update(kind="weird"), "kind"),
    (lambda o: o.update(matrices=o["matrices"][:1]), "matrices"),
    (lambda o: o["matrices"][0].pop(), "rows"),
    (lambda o: o["matrices"][0][0].pop(), "entries"),
    (lambda o: o["matrices"][0][0].__setitem__(0, [1.0]), "pair"),
    (lambda o: o["matrices"][0][0].__setitem__(0, [1.0, "x"]), "pair"),
    (lambda o: o["matrices"][0][0].__setitem__(0, [True, 0.0]), "pair"),
    (lambda o: o["matrices"][0][0].__setitem__(0, [1e400, 0.0]), "finite"),
    pytest.param(lambda o: o["matrices"][0][0].__setitem__(0, [10**400, 0]), "finite",
                 id="oversized-int"),
    (lambda o: o.update(n=True), "positive"),
    (lambda o: o.update(k=True), "positive"),
])
def test_parse_rejects_malformed(mutate, msg):
    obj = json.loads(dump_instance(generate_family(3, 2, seed=12), "general"))
    mutate(obj)
    with pytest.raises(InstanceFormatError, match=msg):
        parse_instance(obj)


def test_parse_rejects_non_object():
    with pytest.raises(InstanceFormatError):
        parse_instance([1, 2, 3])


def test_parse_rejects_false_psd_claim():
    fam = generate_family(3, 1, seed=13)  # generic, not Hermitian
    obj = instance_dict(fam, "general")
    obj["kind"] = "psd"
    with pytest.raises(InstanceFormatError, match="psd"):
        parse_instance(obj)


def test_load_missing_file(tmp_path):
    with pytest.raises(InstanceFormatError):
        load_instance(tmp_path / "nope.json")


def test_load_path_with_nul():
    # open() refuses the path with a bare ValueError; argv never holds a NUL
    with pytest.raises(InstanceFormatError, match="^cannot read: embedded null byte$"):
        load_instance("a\0b.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError, match="JSON"):
        load_instance(path)


def test_load_non_utf8(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(InstanceFormatError, match="^not valid UTF-8: "):
        load_instance(path)


def test_load_overlong_integer(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"n": ' + "1" * 5000 + "}")
    with pytest.raises(InstanceFormatError, match=r"^integer literal longer than \d+ digits$"):
        load_instance(path)


LEAVES = st.one_of(
    st.integers(-3, 3), st.sampled_from([10**400, -10**400]),
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
    st.text(max_size=2), st.none(), st.lists(st.integers(-2, 2), max_size=3))


def _paths(node, path=()):
    """The path of every node of a decoded JSON object, root first."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated_instances(draw):
    """A valid instance with n <= 4, then 1-3 mutations: a number or any
    other node replaced by a leaf, or an element dropped from or added to a
    list."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["general", "psd"]))
    obj = instance_dict(generate_family(n, k, kind=kind, seed=draw(st.integers(0, 9))), kind)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["number", "replace", "drop", "extra"]))
        if action in ("number", "replace"):
            paths = [p for p in _paths(obj) if p and (action == "replace"
                                                      or isinstance(_at(obj, p), float))]
            if paths:
                path = draw(st.sampled_from(paths))
                _at(obj, path[:-1])[path[-1]] = draw(LEAVES)
            continue
        lists = [p for p in _paths(obj) if isinstance(_at(obj, p), list)]
        if not lists:
            continue
        target = _at(obj, draw(st.sampled_from(lists)))
        if action == "drop" and target:
            target.pop(draw(st.integers(0, len(target) - 1)))
        elif action == "extra":
            copies = target and draw(st.booleans())
            target.append(copy.deepcopy(target[0]) if copies else draw(LEAVES))
    return obj


def _with_entry(entry):
    obj = instance_dict(generate_family(2, 2, seed=1), "general")
    obj["matrices"][1][0][1] = entry
    return obj


@settings(max_examples=200, deadline=None)
@given(mutated_instances())
@example(_with_entry([10**400, 0]))
def test_reader_never_crashes(obj):
    try:
        parse_instance(obj)
    except InstanceFormatError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        for command in ("span", "compare", "verify"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([command, path])
            assert code in {0, 1, 2, 3}
            assert "Traceback" not in err.getvalue()


DECODE_BASE = ('[[[[1.0, 0.5], [0, -1]], [[2.0, 0.0], [0.25, 3]]],'
               ' [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]')


def _swapped(path, snippet):
    """DECODE_BASE with the node at `path` replaced by the JSON `snippet`."""
    matrices = json.loads(DECODE_BASE)
    _at(matrices, path[:-1])[path[-1]] = json.loads(snippet)
    return matrices


def _bad_entry(snippet, message):
    """A case with entry (2, 1, 2) replaced and the walker's message for it."""
    return _swapped((1, 0, 1), snippet), f"matrix 2 row 1 col 2: {message}"


def _tuples(matrices):
    """Each matrix of `matrices` as nested tuples: its rows, and each row's entries."""
    return [tuple(tuple(map(tuple, row)) for row in m) for m in matrices]


@pytest.mark.parametrize("kind,matrices,message", [
    pytest.param("general", [[[[0.5, -2.0]]]], None, id="1x1"),
    pytest.param("general", json.loads(DECODE_BASE)[:1], None, id="k1"),
    pytest.param("general", json.loads("[[[[1, 0], [2, -3]], [[0, 7], [-4, 1]]]]"), None,
                 id="integers"),
    pytest.param("general", json.loads("[[[[-0.0, 0.0], [0.0, -0.0]], [[-0.0, -0.0], [1, -0.0]]]]"),
                 None, id="negative-zero"),
    pytest.param("general", [[[[5e-324, -2.5e-310], [2.2250738585072014e-308, 0.0]],
                              [[-5e-324, 1e-320], [1.0, -4e-323]]]], None, id="subnormal"),
    pytest.param("psd", instance_dict(generate_family(3, 2, kind="psd", seed=4), "psd")["matrices"],
                 None, id="psd"),
    pytest.param("general", *_bad_entry(
        "[true, 0.5]", "entry must be a [re, im] number pair, got [True, 0.5]"), id="true"),
    pytest.param("general", *_bad_entry(
        "[0.5, false]", "entry must be a [re, im] number pair, got [0.5, False]"), id="false"),
    pytest.param("general", *_bad_entry(
        '[1.0, "2.0"]', "entry must be a [re, im] number pair, got [1.0, '2.0']"),
        id="numeric-string"),
    pytest.param("general", *_bad_entry(
        "[null, 0.0]", "entry must be a [re, im] number pair, got [None, 0.0]"), id="null"),
    pytest.param("general", *_bad_entry("[NaN, 0.0]", "non-finite entry [nan, 0.0]"), id="nan"),
    pytest.param("general", *_bad_entry("[0.0, -Infinity]", "non-finite entry [0.0, -inf]"),
                 id="infinity"),
    pytest.param("general", *_bad_entry(f"[{10**400}, 0]", f"non-finite entry [{10**400}, 0]"),
                 id="oversized-int"),
    pytest.param("general", _swapped((1, 1), "[[0.0, 0.0]]"), "matrix 2 row 2 must have 2 entries",
                 id="ragged-row"),
    pytest.param("general", *_bad_entry(
        "[[1.0, 2.0], 0.0]", "entry must be a [re, im] number pair, got [[1.0, 2.0], 0.0]"),
        id="extra-nesting"),
    pytest.param("general", *_bad_entry(
        "[1.0, 2.0, 3.0]", "entry must be a [re, im] number pair, got [1.0, 2.0, 3.0]"),
        id="three-element-entry"),
    pytest.param("general", _tuples(json.loads(DECODE_BASE)), None, id="tuples"),
    pytest.param("general", _tuples(_swapped((1, 0, 1), "[NaN, 0.0]")),
                 "matrix 2 row 1 col 2: non-finite entry (nan, 0.0)", id="nan-in-tuples"),
])
def test_vectorized_decode_matches_walker(kind, matrices, message):
    n, k = len(matrices[0]), len(matrices)
    obj = {"schema_version": "1.0", "n": n, "k": k, "kind": kind, "matrices": matrices}
    fast = _decode_matrices(matrices, n, k)
    if message is not None:  # falls back, and the walker names the entry
        assert fast is None
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(obj)
        assert str(exc.value) == message
        return
    walked = np.stack(_walk_matrices(matrices, n))
    family, _ = parse_instance(obj)
    # uint64 views compare every bit, np.signbit of each zero included
    for stack in (fast, np.stack(list(family))):
        assert np.array_equal(stack.view(np.uint64), walked.view(np.uint64))
