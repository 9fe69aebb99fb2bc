import json

import pytest

from narlab.corpora import (
    read_pairs,
    read_sentences,
    write_json,
    write_pairs,
    write_sentences,
)


class TestSentences:
    def test_round_trip(self, tmp_path):
        sents = [[4, 5, 6], [7], [8, 9]]
        p = tmp_path / "a.txt"
        write_sentences(p, sents)
        assert read_sentences(p) == sents

    def test_format_is_space_separated_lines(self, tmp_path):
        p = tmp_path / "b.txt"
        write_sentences(p, [[4, 5], [6]])
        assert p.read_text() == "4 5\n6\n"

    def test_byte_identical_rewrites(self, tmp_path):
        sents = [[10, 11], [12, 13, 14]]
        a, b = tmp_path / "x.txt", tmp_path / "y.txt"
        write_sentences(a, sents)
        write_sentences(b, sents)
        assert a.read_bytes() == b.read_bytes()

    def test_creates_parent_directories(self, tmp_path):
        p = tmp_path / "deep" / "er" / "c.txt"
        write_sentences(p, [[4]])
        assert read_sentences(p) == [[4]]


class TestPairs:
    def test_round_trip(self, tmp_path):
        pairs = [([4, 5], [5, 4]), ([6, 7, 8], [8, 7, 6])]
        write_pairs(tmp_path, "train", pairs)
        assert read_pairs(tmp_path, "train") == pairs
        assert (tmp_path / "train.src").exists()
        assert (tmp_path / "train.tgt").exists()

    def test_count_mismatch_rejected(self, tmp_path):
        write_sentences(tmp_path / "bad.src", [[4], [5]])
        write_sentences(tmp_path / "bad.tgt", [[4]])
        with pytest.raises(ValueError, match="counts differ"):
            read_pairs(tmp_path, "bad")


class TestJson:
    def test_round_trip(self, tmp_path):
        obj = {"b": [1, 2], "a": {"nested": True}}
        p = tmp_path / "meta.json"
        write_json(p, obj)
        with open(p) as fh:
            assert json.load(fh) == obj

    def test_key_order_canonical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, {"z": 1, "a": 2})
        write_json(b, {"a": 2, "z": 1})
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().index('"a"') < a.read_text().index('"z"')
