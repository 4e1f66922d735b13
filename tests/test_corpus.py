from pathlib import Path

import pytest

from locale_lab.corpus import (
    ENV_VAR,
    all_topologies,
    boolean_spec,
    chain_spec,
    corpus_root,
    generate,
    iter_corpus_frames,
    iter_negative_specs,
)
from locale_lab.frames import FrameError, NotDistributive, build_frame


def test_topology_counts():
    assert [len(all_topologies(k)) for k in range(5)] == [1, 1, 4, 29, 355]


def test_boolean_spec_keeps_every_point():
    fr = build_frame(boolean_spec(4))
    assert fr.n == 16 and fr.boolean


def test_chain_spec_refuses_fewer_than_one_element():
    assert [build_frame(chain_spec(n)).n for n in (1, 2, 3, 4)] == [1, 2, 3, 4]
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n = {n}$"):
            chain_spec(n)


def test_shipped_corpus_is_fresh(tmp_path):
    # regenerating must reproduce the checked-in files byte for byte
    written = generate(tmp_path)
    root = corpus_root()
    shipped = sorted(
        p.relative_to(root) for p in root.rglob("*.json")
    )
    assert shipped == written
    for rel in written:
        assert (tmp_path / rel).read_bytes() == (root / rel).read_bytes(), rel


def test_every_positive_entry_builds():
    frames = iter_corpus_frames()
    assert len(frames) == 44
    names = [n for n, _ in frames]
    assert "chain3" in names and "bool3" in names and "top-3pt-28" in names
    by_name = dict(frames)
    assert by_name["bool3"].boolean
    assert by_name["bool3"].n == 8
    assert not by_name["chain4"].boolean
    # the 3-chain keeps its pinned middle name
    assert list(by_name["chain3"].elements) == ["0", "u", "1"]


def test_negatives_are_rejected_with_witnesses():
    negs = iter_negative_specs()
    assert [n for n, _ in negs] == ["m3", "n5"]
    for _, spec in negs:
        with pytest.raises(NotDistributive) as exc:
            build_frame(spec)
        assert exc.value.witness


def test_env_var_overrides_the_root(tmp_path, monkeypatch):
    generate(tmp_path)
    monkeypatch.setenv(ENV_VAR, str(tmp_path))
    assert corpus_root() == tmp_path
    assert len(iter_corpus_frames()) == 44
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "missing"))
    with pytest.raises(FileNotFoundError):
        iter_corpus_frames()
