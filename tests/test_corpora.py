import json

import pytest

from narlab.corpora import read_sentences, whole_file, write_json, write_pairs, write_sentences


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
        assert read_sentences(tmp_path / "train.src") == [s for s, _ in pairs]
        assert read_sentences(tmp_path / "train.tgt") == [t for _, t in pairs]


class TestWholeFiles:
    """A write that fails leaves the old file as it was, and nothing beside it."""

    def test_failed_write_keeps_old_bytes(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("old\n")
        with pytest.raises(RuntimeError, match="killed"):
            with whole_file(p) as fh:
                fh.write("new, cut short")
                fh.flush()
                raise RuntimeError("killed")
        assert p.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [p]

    def test_failed_sentence_stream_keeps_old_bytes(self, tmp_path):
        p = tmp_path / "mono.txt"
        write_sentences(p, [[4, 5], [6]])

        def sentences():
            yield [7, 8]
            raise RuntimeError("killed")

        with pytest.raises(RuntimeError, match="killed"):
            write_sentences(p, sentences())
        assert p.read_text() == "4 5\n6\n"
        assert list(tmp_path.iterdir()) == [p]

    def test_binary_mode_and_new_file(self, tmp_path):
        p = tmp_path / "new" / "f.bin"
        with whole_file(p, "wb") as fh:
            fh.write(b"\x00\x01")
        assert p.read_bytes() == b"\x00\x01"
        assert list(p.parent.iterdir()) == [p]


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
