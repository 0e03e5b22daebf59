"""Tests for repro.sequence: alphabet, reverse complement, FASTA,
EstCollection — including hypothesis properties on the encoding layer."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sequence import (
    ALPHABET,
    LAMBDA,
    SIGMA,
    EstCollection,
    FastaRecord,
    decode,
    encode,
    read_fasta,
    reverse_complement,
    reverse_complement_str,
    write_fasta,
)
from repro.sequence.alphabet import complement_codes, is_valid_codes
from repro.sequence.fasta import parse_fasta, records_to_string
from repro.sequence.seq import canonical_codes

dna = st.text(alphabet="ACGT", min_size=1, max_size=60)


class TestAlphabet:
    def test_encode_decode_roundtrip_basic(self):
        assert decode(encode("ACGT")) == "ACGT"

    @given(dna)
    def test_encode_decode_roundtrip(self, s):
        assert decode(encode(s)) == s

    def test_encode_is_case_insensitive(self):
        assert np.array_equal(encode("acgt"), encode("ACGT"))

    def test_encode_rejects_ambiguity_codes(self):
        with pytest.raises(ValueError, match="invalid DNA character"):
            encode("ACGN")

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decode(np.array([0, 4], dtype=np.uint8))

    def test_complement_is_three_minus_code(self):
        codes = encode("ACGT")
        assert np.array_equal(complement_codes(codes), encode("TGCA"))

    @given(dna)
    def test_complement_involution(self, s):
        codes = encode(s)
        assert np.array_equal(complement_codes(complement_codes(codes)), codes)

    def test_lambda_is_outside_sigma(self):
        assert LAMBDA == SIGMA == 4
        assert len(ALPHABET) == 4

    def test_is_valid_codes(self):
        assert is_valid_codes(encode("ACGT"))
        assert is_valid_codes(np.array([], dtype=np.uint8))
        assert not is_valid_codes(np.array([5], dtype=np.uint8))


class TestReverseComplement:
    def test_known_value(self):
        assert reverse_complement_str("AACGT") == "ACGTT"

    @given(dna)
    def test_involution(self, s):
        assert reverse_complement_str(reverse_complement_str(s)) == s

    @given(dna)
    def test_preserves_length(self, s):
        assert len(reverse_complement(encode(s))) == len(s)

    @given(dna, dna)
    def test_antihomomorphism(self, a, b):
        # rc(a + b) == rc(b) + rc(a)
        assert reverse_complement_str(a + b) == (
            reverse_complement_str(b) + reverse_complement_str(a)
        )

    @given(dna)
    def test_canonical_is_min_of_strand_pair(self, s):
        codes = encode(s)
        canon = canonical_codes(codes)
        options = {decode(codes), reverse_complement_str(s)}
        assert decode(canon) == min(options)


class TestFasta:
    def test_roundtrip_via_file(self, tmp_path):
        records = [
            FastaRecord("r1", "ACGTACGT", "first read"),
            FastaRecord("r2", "TTTT"),
        ]
        path = tmp_path / "test.fa"
        write_fasta(records, path, width=4)
        back = read_fasta(path)
        assert back == records

    def test_wrapping_respected(self):
        text = records_to_string([FastaRecord("x", "ACGTACGTAC")], width=4)
        assert text == ">x\nACGT\nACGT\nAC\n"

    def test_parse_multiline_and_description(self):
        handle = io.StringIO(">name desc words\nACGT\nacgt\n>n2\nTT\n")
        recs = list(parse_fasta(handle))
        assert recs[0] == FastaRecord("name", "ACGTacgt", "desc words")
        assert recs[1].name == "n2"

    def test_parse_rejects_headerless_sequence(self):
        with pytest.raises(ValueError, match="before first header"):
            list(parse_fasta(io.StringIO("ACGT\n")))

    def test_parse_rejects_empty_header(self):
        with pytest.raises(ValueError, match="empty FASTA header"):
            list(parse_fasta(io.StringIO(">\nACGT\n")))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            FastaRecord("", "ACGT")

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            write_fasta([], io.StringIO(), width=0)

    def test_blank_lines_skipped(self):
        recs = list(parse_fasta(io.StringIO(">a\n\nAC\n\nGT\n")))
        assert recs[0].sequence == "ACGT"


class TestEstCollection:
    def test_basic_shape(self):
        col = EstCollection.from_strings(["ACGT", "GG"])
        assert col.n_ests == 2
        assert col.n_strings == 4
        assert col.total_chars == 6
        assert col.mean_length == 3.0
        assert len(col) == 2

    def test_interleaved_strand_convention(self):
        col = EstCollection.from_strings(["AACG"])
        assert decode(col.string(0)) == "AACG"
        assert decode(col.string(1)) == reverse_complement_str("AACG")
        assert col.est_of_string(1) == 0
        assert col.is_complemented(1) and not col.is_complemented(0)

    @given(st.lists(dna, min_size=1, max_size=5))
    def test_strings_roundtrip(self, seqs):
        col = EstCollection.from_strings(seqs)
        for i, s in enumerate(seqs):
            assert col.est_string(i) == s
            assert col.length(2 * i) == len(s)

    def test_left_extension(self):
        col = EstCollection.from_strings(["ACGT"])
        assert col.left_extension(0, 0) == LAMBDA
        assert col.left_extension(0, 1) == 0  # 'A' precedes offset 1
        assert col.left_extension(0, 3) == 2  # 'G' precedes offset 3

    def test_names_default_and_custom(self):
        assert EstCollection.from_strings(["AC"]).names == ["EST0"]
        col = EstCollection.from_strings(["AC"], names=["x"])
        assert col.names == ["x"]

    def test_from_records(self):
        col = EstCollection.from_records([FastaRecord("r", "ACGT")])
        assert col.names == ["r"] and col.est_string(0) == "ACGT"

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            EstCollection([])

    def test_empty_est_rejected(self):
        with pytest.raises(ValueError):
            EstCollection.from_strings(["ACG", ""])

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EstCollection.from_strings(["AC"], names=["a", "b"])

    def test_index_bounds(self):
        col = EstCollection.from_strings(["AC"])
        with pytest.raises(IndexError):
            col.string(2)
        with pytest.raises(IndexError):
            col.est(1)
        with pytest.raises(IndexError):
            col.length(-1)

    def test_buffer_is_readonly(self):
        col = EstCollection.from_strings(["ACGT"])
        with pytest.raises(ValueError):
            col.string(0)[0] = 3

    def test_arena_is_a_view_of_the_buffer(self):
        col = EstCollection.from_strings(["ACGT", "GGCA"])
        arena, offsets = col.arena()
        assert arena.dtype == np.int8
        assert np.shares_memory(arena, col.string(0))
        assert not arena.flags.writeable
        for k in range(col.n_strings):
            np.testing.assert_array_equal(
                arena[offsets[k] : offsets[k + 1]], col.string(k)
            )

    @given(st.lists(dna, min_size=1, max_size=4))
    def test_sa_text_sentinels_unique_and_small(self, seqs):
        col = EstCollection.from_strings(seqs)
        text, starts = col.sa_text()
        two_n = col.n_strings
        assert text.dtype == np.int32 and starts.dtype == np.int64
        assert starts[0] == 0 and starts[-1] == text.size
        assert text.size == 2 * col.total_chars + two_n
        sentinels = [int(text[starts[k + 1] - 1]) for k in range(two_n)]
        assert sentinels == list(range(two_n))  # unique, in order
        for k in range(two_n):
            body = text[starts[k] : starts[k + 1] - 1]
            assert (body >= two_n).all()  # nucleotides shifted above all sentinels
            assert np.array_equal(body - two_n, col.string(k))
