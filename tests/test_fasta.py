"""FASTA round trips and validation."""

import io

import pytest

from corrclass.fasta import LINE_WIDTH, read_fasta, write_fasta
from corrclass.rng import stream
from corrclass.sequences import random_sequence, reference_family


def test_round_trip_through_path(tmp_path):
    rng = stream(1, "fasta")
    records = [(f"seq{i}", random_sequence(int(rng.integers(1, 300)), rng)) for i in range(5)]
    path = tmp_path / "refs.fa"
    write_fasta(records, path)
    assert read_fasta(path) == records


def test_round_trip_through_handles():
    rng = stream(2, "fasta")
    records = [("a", random_sequence(200, rng)), ("b", random_sequence(3, rng))]
    buffer = io.StringIO()
    write_fasta(records, buffer)
    assert read_fasta(io.StringIO(buffer.getvalue())) == records


def test_long_sequences_wrap(tmp_path):
    seq = random_sequence(LINE_WIDTH * 3 + 5, stream(3, "fasta"))
    path = tmp_path / "wrap.fa"
    write_fasta([("long", seq)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == ">long"
    assert all(len(line) <= LINE_WIDTH for line in lines[1:])
    assert "".join(lines[1:]) == seq


def test_multiline_bodies_join_on_read():
    text = ">x\nACGT\nTTAA\n\n>y\nGG\n"
    records = read_fasta(io.StringIO(text))
    assert records == [("x", "ACGTTTAA"), ("y", "GG")]


def test_header_keeps_first_token_only():
    records = read_fasta(io.StringIO(">name extra words\nACGT\n"))
    assert records == [("name", "ACGT")]


def test_reference_family_round_trip(tmp_path):
    family = reference_family(50, stream(4, "family"))
    records = [(f"seq{i}", seq) for i, seq in enumerate(family)]
    path = tmp_path / "family.fa"
    write_fasta(records, path)
    back = read_fasta(path)
    assert [name for name, _ in back] == [f"seq{i}" for i in range(8)]
    assert tuple(seq for _, seq in back) == family.seqs


def test_read_rejects_garbage():
    with pytest.raises(ValueError):
        read_fasta(io.StringIO("ACGT\n"))
    with pytest.raises(ValueError):
        read_fasta(io.StringIO(">x\nACGU\n"))
    with pytest.raises(ValueError):
        read_fasta(io.StringIO(""))
    with pytest.raises(ValueError):
        read_fasta(io.StringIO(">\nACGT\n"))


def test_write_rejects_bad_records(tmp_path):
    with pytest.raises(ValueError):
        write_fasta([("bad name", "ACGT")], tmp_path / "x.fa")
    with pytest.raises(ValueError):
        write_fasta([("ok", "acgt")], tmp_path / "y.fa")


def test_bad_record_leaves_existing_output(tmp_path):
    records = [("a", "ACGT"), ("b", "ACGX")]
    path = tmp_path / "f.fa"
    path.write_text(">old\nTTTT\n")
    with pytest.raises(ValueError, match="outside ACGT"):
        write_fasta(records, path)
    assert path.read_text() == ">old\nTTTT\n"
    buffer = io.StringIO(">old\n")
    buffer.seek(0, io.SEEK_END)
    with pytest.raises(ValueError, match="outside ACGT"):
        write_fasta(iter(records), buffer)
    assert buffer.getvalue() == ">old\n"


def test_non_ascii_name_writes_nothing(tmp_path):
    records = [("a", "ACGT"), ("b\u00e9", "ACGT")]
    path = tmp_path / "f.fa"
    path.write_text(">old\nTTTT\n")
    with pytest.raises(ValueError, match="ASCII"):
        write_fasta(records, path)
    assert path.read_text() == ">old\nTTTT\n"
    buffer = io.StringIO()
    with pytest.raises(ValueError, match="ASCII"):
        write_fasta(records, buffer)
    assert buffer.getvalue() == ""
