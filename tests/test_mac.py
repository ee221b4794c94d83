import copy
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ledleak.errors import FrameError
from ledleak.mac import (
    MAX_FRAME,
    MIN_FRAME,
    EthernetFrame,
    MiiNibbleStream,
    PipelineState,
    ValidationResult,
    _nibbles_to_octets,
    abort_transmission,
    build_frame,
    crc32_fcs,
    ethertype_bytes,
    keyed_checksum_hook,
    mac_address,
    mii_marshal,
    octets_to_nibbles,
    sign_frame,
    stream_from_wire_octets,
    validate_frame,
    verify_frame,
)

from oracles import (
    crc32_bitserial,
    crc32_bitserial_le,
    field_values,
    nibbles_in_range,
    nibbles_to_octets_loop,
    octets_to_nibbles_loop,
)

DST = mac_address("aa:bb:cc:dd:ee:ff")
SRC = mac_address("11:22:33:44:55:66")


def make_frame(payload_len: int, seed: int = 0) -> EthernetFrame:
    rng = np.random.default_rng(seed)
    return build_frame(DST, SRC, 0x0800, rng.bytes(payload_len))


# ---------------------------------------------------------------------------
# CRC-32
# ---------------------------------------------------------------------------

class TestCrc32:
    def test_check_value(self):
        # Frozen from the bit-serial oracle: 0xCBF43926, little-endian on the wire.
        assert crc32_bitserial(b"123456789") == 0xCBF43926
        assert crc32_fcs(b"123456789") == (0xCBF43926).to_bytes(4, "little")

    def test_empty_input(self):
        # Complement of the all-ones initial register after finalisation.
        assert crc32_bitserial(b"") == 0x00000000
        assert crc32_fcs(b"") == b"\x00\x00\x00\x00"

    def test_matches_bitserial_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            data = rng.bytes(int(rng.integers(0, 64)))
            assert crc32_fcs(data) == crc32_bitserial_le(data)

    def test_residue_constant(self):
        # Frozen from the oracle: crc(m || fcs(m)) == 0x2144DF1C for all m.
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = rng.bytes(int(rng.integers(0, 48)))
            assert crc32_bitserial(m + crc32_bitserial_le(m)) == 0x2144DF1C
            assert crc32_fcs(m + crc32_fcs(m)) == (0x2144DF1C).to_bytes(4, "little")

    def test_linearity_against_oracle(self):
        # crc(a) ^ crc(b) ^ crc(0^n) == crc(a ^ b) on equal lengths.
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 32))
            a = rng.bytes(n)
            b = rng.bytes(n)
            x = bytes(p ^ q for p, q in zip(a, b))
            zeros = bytes(n)
            lhs = crc32_bitserial(a) ^ crc32_bitserial(b) ^ crc32_bitserial(zeros)
            assert lhs == crc32_bitserial(x)
            got = (int.from_bytes(crc32_fcs(a), "little")
                   ^ int.from_bytes(crc32_fcs(b), "little")
                   ^ int.from_bytes(crc32_fcs(zeros), "little"))
            assert got == int.from_bytes(crc32_fcs(x), "little")


# ---------------------------------------------------------------------------
# Frame building
# ---------------------------------------------------------------------------

class TestBuildFrame:
    def test_46_octet_payload_no_pad(self):
        f = build_frame(DST, SRC, 0x0800, bytes(46))
        assert f.wire_length == 64
        assert f.pad == b""

    def test_short_payload_padded_to_minimum(self):
        f = build_frame(DST, SRC, 0x0800, b"\x42")
        assert f.wire_length == 64
        assert len(f.pad) == 45

    def test_oversize_payload_rejected(self):
        # The frame's own check: build_frame keeps no copy of it.
        with pytest.raises(FrameError, match="^payload 1501 exceeds 1500 octets$"):
            build_frame(DST, SRC, 0x0800, bytes(1501))

    @pytest.mark.parametrize("field, value, message", [
        ("dst", bytes(5), "dst and src must each be 6 octets"),
        ("src", bytes(7), "dst and src must each be 6 octets"),
        ("ethertype", b"\x08", "ethertype must be 2 octets"),
        ("payload", bytes(1501), "payload 1501 exceeds 1500 octets"),
        ("fcs", bytes(3), "fcs must be 4 octets"),
        ("pad", b"", "frame length 23 outside [64, 1518]"),
    ])
    def test_frame_refuses_field_sizes(self, field, value, message):
        f = build_frame(DST, SRC, 0x0800, b"hello")
        with pytest.raises(FrameError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(f, **{field: value})

    def test_max_payload_accepted(self):
        f = build_frame(DST, SRC, 0x0800, bytes(1500))
        assert f.wire_length == 1518

    def test_fcs_covers_dst_through_pad(self):
        f = build_frame(DST, SRC, 0x0800, b"hello")
        body = f.dst + f.src + f.ethertype + f.payload + f.pad
        assert f.fcs == crc32_bitserial_le(body)

    def test_constructed_frame_validates_fcs(self):
        f = build_frame(DST, SRC, 0x0800, b"x")
        with pytest.raises(FrameError):
            EthernetFrame(f.dst, f.src, f.ethertype, f.payload, f.pad, b"\x00" * 4)

    def test_ethertype_out_of_range_rejected(self):
        assert ethertype_bytes(0) == b"\x00\x00"
        assert ethertype_bytes(0xFFFF) == b"\xff\xff"
        for value in (0x10000, -1):
            with pytest.raises(FrameError):
                ethertype_bytes(value)
            with pytest.raises(FrameError):
                build_frame(DST, SRC, value, b"")
        with pytest.raises(FrameError, match="^ethertype must be 2 octets, got 3$"):
            ethertype_bytes(b"\x08\x00\x00")

    def test_mac_address_parsing(self):
        assert mac_address("00:01:02:03:04:05") == bytes(range(6))
        with pytest.raises(FrameError):
            mac_address("00:01:02")
        with pytest.raises(FrameError):
            mac_address(b"\x00" * 5)

    def test_mac_address_octet_above_ff(self):
        assert mac_address("001:02:03:04:05:0ff") == bytes([1, 2, 3, 4, 5, 255])
        with pytest.raises(FrameError, match="MAC address octet '100'"):
            mac_address("aa:bb:cc:dd:ee:100")


# ---------------------------------------------------------------------------
# MII marshalling
# ---------------------------------------------------------------------------

class TestMiiMarshal:
    def test_stream_length(self):
        f = make_frame(46)
        assert f.wire_length == 64
        assert len(mii_marshal(f)) == 144  # 2 * (8 + 64)

    def test_preamble_nibbles(self):
        s = mii_marshal(make_frame(10))
        assert s.nibbles[0] == 0x5
        assert s.nibbles[1] == 0x5
        assert all(n == 0x5 for n in s.nibbles[:14])

    def test_sfd_low_nibble_first(self):
        s = mii_marshal(make_frame(10))
        # nibbles 15 and 16 (1-indexed): 0x5 then 0xD
        assert s.nibbles[14] == 0x5
        assert s.nibbles[15] == 0xD

    def test_octet_nibble_order(self):
        assert octets_to_nibbles(b"\xd5") == bytes([0x5, 0xD])
        assert octets_to_nibbles(b"\x12\xab") == bytes([0x2, 0x1, 0xB, 0xA])

    @given(st.binary(max_size=1600))
    @settings(max_examples=100, deadline=None)
    def test_octets_nibbles_octets_round_trip(self, octets):
        nibbles = octets_to_nibbles(octets)
        assert len(nibbles) == 2 * len(octets) and max(nibbles, default=0) <= 15
        assert _nibbles_to_octets(nibbles) == octets

    @given(st.lists(st.integers(0, 15), max_size=400).map(bytes))
    @settings(max_examples=100, deadline=None)
    def test_nibbles_octets_nibbles_round_trip(self, nibbles):
        # A dangling half octet is dropped.
        assert octets_to_nibbles(_nibbles_to_octets(nibbles)) == nibbles[:len(nibbles) & ~1]

    def test_nibble_value_validation(self):
        with pytest.raises(ValueError):
            MiiNibbleStream(bytes([16]))

    @staticmethod
    def assert_checked_like_oracle(values: bytes, kind=bytes) -> None:
        if nibbles_in_range(values):
            assert MiiNibbleStream(kind(values)).nibbles == values
        else:
            with pytest.raises(ValueError, match=re.escape("nibble values must be in [0, 15]")):
                MiiNibbleStream(kind(values))

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview, list])
    def test_every_byte_value_at_every_position(self, kind):
        for value in range(256):
            for at in range(3):
                values = bytearray(b"\x05\x0d")
                values.insert(at, value)
                self.assert_checked_like_oracle(bytes(values), kind)
            self.assert_checked_like_oracle(bytes([value]), kind)

    @given(st.lists(st.integers(0, 15), max_size=200).map(bytes), st.integers(0, 255),
           st.integers(0), st.sampled_from([bytes, bytearray, memoryview, list]))
    @example(b"", 0, 0, bytes).via("the empty stream")
    @settings(max_examples=200, deadline=None)
    def test_accepts_exactly_when_oracle_does(self, nibbles, value, at, kind):
        at %= len(nibbles) + 1
        self.assert_checked_like_oracle(nibbles, kind)
        self.assert_checked_like_oracle(nibbles[:at] + bytes([value]) + nibbles[at:], kind)

    @pytest.mark.parametrize("values", [[0, 256], [-1]])
    def test_list_outside_bytes_keeps_bytes_error(self, values):
        with pytest.raises(ValueError, match=re.escape("bytes must be in range(0, 256)")):
            MiiNibbleStream(values)

    def test_non_integer_iterable_keeps_bytes_error(self):
        with pytest.raises(TypeError):
            MiiNibbleStream(["5"])

    def test_string_round_trip(self):
        s = mii_marshal(make_frame(5))
        assert MiiNibbleStream.from_string(s.to_string()) == s

    @given(st.lists(st.integers(0, 15), max_size=400).map(bytes))
    @settings(max_examples=50, deadline=None)
    def test_nibbles_string_nibbles_round_trip(self, nibbles):
        text = MiiNibbleStream(nibbles).to_string()
        assert text == "".join(f"{n:x}" for n in nibbles)
        assert MiiNibbleStream.from_string(text).nibbles == nibbles

    @given(st.text(alphabet="0123456789abcdefABCDEF", max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_string_nibbles_string_round_trip(self, text):
        s = MiiNibbleStream.from_string(text)
        assert s.nibbles == bytes(int(c, 16) for c in text)
        assert s.to_string() == text.lower()

    @given(st.text(max_size=12), st.characters(), st.text(max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_string_rejects_all_but_ascii_hex(self, head, c, tail):
        text = head + c + tail
        bad = [ch for ch in text.strip() if ch not in "0123456789abcdefABCDEF"]
        if not bad:
            assert MiiNibbleStream.from_string(text).to_string() == text.strip().lower()
        else:
            with pytest.raises(ValueError, match=re.escape(f"non-hex digit {bad[0]!r}")):
                MiiNibbleStream.from_string(text)


class TestNibbleCodec:
    """The split and the pack, value by value, against one-octet-at-a-time loops."""

    def test_every_octet_splits_like_the_loop(self):
        for value in range(256):
            assert octets_to_nibbles(bytes([value])) == octets_to_nibbles_loop(bytes([value]))
        every = bytes(range(256))
        assert octets_to_nibbles(every) == octets_to_nibbles_loop(every)

    def test_every_nibble_pair_packs_like_the_loop(self):
        pairs = bytes(n for hi in range(16) for lo in range(16) for n in (lo, hi))
        assert _nibbles_to_octets(pairs) == nibbles_to_octets_loop(pairs) == bytes(range(256))
        for i in range(0, len(pairs), 2):
            assert _nibbles_to_octets(pairs[i:i + 2]) == nibbles_to_octets_loop(pairs[i:i + 2])

    @pytest.mark.parametrize("nibbles", [b"", b"\x0f", b"\x05\x0d\x0a",
                                         bytes(range(16)) * 3 + b"\x07"], ids=len)
    def test_empty_and_odd_streams_pack_like_the_loop(self, nibbles):
        assert _nibbles_to_octets(nibbles) == nibbles_to_octets_loop(nibbles)

    def test_empty_octets_split_to_nothing(self):
        assert octets_to_nibbles(b"") == octets_to_nibbles_loop(b"") == b""

    @given(st.lists(st.integers(0, 15), max_size=401).map(bytes))
    @settings(max_examples=100, deadline=None)
    def test_any_stream_packs_like_the_loop(self, nibbles):
        assert _nibbles_to_octets(nibbles) == nibbles_to_octets_loop(nibbles)

    @given(st.binary(max_size=300), st.sampled_from([bytes, bytearray, memoryview]))
    @settings(max_examples=100, deadline=None)
    def test_any_octets_split_like_the_loop(self, octets, kind):
        nibbles = octets_to_nibbles(kind(octets))
        assert type(nibbles) is bytes
        assert nibbles == octets_to_nibbles_loop(octets)


# ---------------------------------------------------------------------------
# Pipeline state machine
# ---------------------------------------------------------------------------

class TestPipeline:
    def test_sfd_recognised_at_16th_nibble(self):
        s = mii_marshal(make_frame(10))
        state = PipelineState()
        for n in s.nibbles[:15]:
            state.step(n)
        assert not state.sfd_found
        state.step(s.nibbles[15])
        assert state.sfd_found
        assert state.fields_valid["sfd"] == 16

    def test_preamble_forever_stays_hunting(self):
        state = PipelineState()
        for _ in range(500):
            state.step(0x5)
        assert not state.sfd_found
        assert field_values(state) == {}

    def test_dst_valid_after_sfd_plus_12(self):
        f = make_frame(10)
        s = mii_marshal(f)
        state = PipelineState()
        for n in s.nibbles[:28]:
            state.step(n)
        peek = field_values(state)
        assert set(peek) == {"dst"}
        assert peek["dst"] == f.dst
        assert state.fields_valid["dst"] == 28

    def test_header_complete_after_sfd_plus_28(self):
        f = make_frame(10)
        s = mii_marshal(f)
        state = PipelineState()
        for n in s.nibbles[:44]:
            state.step(n)
        peek = field_values(state)
        assert set(peek) == {"dst", "src", "ethertype"}
        assert peek["src"] == f.src
        assert peek["ethertype"] == f.ethertype

    def test_full_stream_all_fields_valid(self):
        f = make_frame(20, seed=4)
        s = mii_marshal(f)
        state = PipelineState().feed(s.nibbles).finish()
        peek = field_values(state)
        assert peek["fcs_ok"] is True
        assert peek["length"] == f.wire_length
        assert peek["payload"] == f.payload + f.pad

    def test_cursor_advances_one_per_step(self):
        s = mii_marshal(make_frame(0))
        state = PipelineState()
        for i, n in enumerate(s.nibbles, start=1):
            state.step(n)
            assert state.cursor == i

    def test_fields_valid_grows_monotonically(self):
        s = mii_marshal(make_frame(30, seed=2))
        state = PipelineState()
        seen: set = set()
        for n in s.nibbles:
            state.step(n)
            assert seen <= set(state.fields_valid)
            seen = set(state.fields_valid)

    def test_resync_after_preamble_noise(self):
        f = make_frame(7, seed=9)
        noisy = bytes([0x5, 0x3, 0x7]) + mii_marshal(f).nibbles
        result = validate_frame(MiiNibbleStream(noisy))
        assert result.accepted

    def test_invalid_nibble_rejected(self):
        state = PipelineState()
        with pytest.raises(ValueError):
            state.step(16)

    def test_step_after_finish_rejected(self):
        state = PipelineState().finish()
        with pytest.raises(RuntimeError):
            state.step(0x5)


def pipeline_spec(nibbles: bytes, finished: bool) -> tuple[dict, dict]:
    """``(fields_valid, field_values(state))`` of a pipeline clocked through
    ``nibbles``, then finished if ``finished``, in closed form."""
    sfd = next((i + 1 for i in range(1, len(nibbles))
                if nibbles[i - 1] == 0x5 and nibbles[i] == 0xD), None)
    if sfd is None:
        return {}, {}
    body = nibbles[sfd:]
    octets = bytes(lo | hi << 4 for lo, hi in zip(body[0::2], body[1::2]))
    valid, values = {"sfd": sfd}, {}
    for name, start, end in (("dst", 0, 6), ("src", 6, 12), ("ethertype", 12, 14)):
        if len(octets) >= end:
            valid[name], values[name] = sfd + 2 * end, octets[start:end]
    if finished:
        whole = len(octets) >= 18
        valid["length"], values["length"] = len(nibbles), len(octets)
        if whole:
            valid["payload"], values["payload"] = len(nibbles), octets[14:-4]
        valid["fcs_ok"] = len(nibbles)
        values["fcs_ok"] = whole and crc32_bitserial_le(octets[:-4]) == octets[-4:]
    return valid, values


@st.composite
def pipeline_streams(draw) -> bytes:
    """Junk, a preamble repeated, broken or missing, an SFD or not, then a
    frame cut anywhere, one nibble maybe flipped, and a tail that may leave
    a half octet dangling."""
    junk = draw(st.lists(st.integers(0, 15), max_size=6))
    preamble = draw(st.lists(st.sampled_from([0x5, 0x5, 0x5, 0xD, 0x0, 0xA]), max_size=20))
    sfd = draw(st.sampled_from([[0x5, 0xD], [0x5, 0xD], [0xD], []]))
    frame = octets_to_nibbles(make_frame(draw(st.integers(0, 50)), seed=draw(st.integers(0, 99)))
                              .serialize())
    frame = frame[:draw(st.integers(0, len(frame)))]
    if frame and draw(st.booleans()):
        i = draw(st.integers(0, len(frame) - 1))
        frame = frame[:i] + bytes([frame[i] ^ draw(st.integers(1, 15))]) + frame[i + 1:]
    tail = draw(st.lists(st.integers(0, 15), max_size=3))
    return bytes(junk + preamble + sfd) + frame + bytes(tail)


class TestPipelineMatchesSpec:
    """The clocked pipeline, at every clock and at every end of stream."""

    @given(pipeline_streams())
    @settings(max_examples=150, deadline=None)
    def test_every_prefix(self, nibbles):
        state = PipelineState()
        for k in range(len(nibbles) + 1):
            if k:
                state.step(nibbles[k - 1])
            assert state.cursor == k
            for done, finished in ((state, False), (copy.deepcopy(state).finish(), True)):
                valid, values = pipeline_spec(nibbles[:k], finished)
                assert done.sfd_found == ("sfd" in valid)
                assert done.fields_valid == valid
                assert field_values(done) == values
                assert done.dst == values.get("dst")
                assert done.frame_length == values.get("length")


# ---------------------------------------------------------------------------
# validate_frame
# ---------------------------------------------------------------------------

class TestValidateFrame:
    def test_round_trip(self):
        f = make_frame(123, seed=5)
        result = validate_frame(mii_marshal(f))
        assert result.accepted
        assert result.frame.serialize() == f.serialize()

    def test_empty_stream_no_sfd(self):
        assert validate_frame(MiiNibbleStream(b"")).reason == "no_sfd"

    def test_garbage_stream_no_sfd(self):
        assert validate_frame(MiiNibbleStream(bytes([1, 2, 3, 4] * 40))).reason == "no_sfd"

    def test_runt_rejected(self):
        short = stream_from_wire_octets(bytes(40))
        assert validate_frame(short).reason == "runt"

    def test_oversize_rejected(self):
        big = stream_from_wire_octets(bytes(1600))
        assert validate_frame(big).reason == "oversize"

    def test_corrupted_fcs_rejected(self):
        f = make_frame(50, seed=6)
        wire = bytearray(f.serialize())
        wire[20] ^= 0x01
        result = validate_frame(stream_from_wire_octets(bytes(wire)))
        assert result.reason == "fcs_mismatch"

    @given(st.integers(0, 1500))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_any_payload_length(self, n):
        f = make_frame(n, seed=n)
        result = validate_frame(mii_marshal(f))
        assert result.accepted
        assert result.frame.serialize() == f.serialize()

    @given(st.binary(min_size=6, max_size=6), st.binary(min_size=6, max_size=6),
           st.integers(0, 0xFFFF), st.binary(max_size=1500)
           | st.integers(0, 1500).map(bytes))
    @example(bytes(6), bytes(6), 0, b"").via("all pad")
    @example(b"\xff" * 6, b"\xff" * 6, 0xFFFF, b"\xff" * 1500).via("largest frame")
    @settings(max_examples=100, deadline=None)
    def test_frame_equals_the_checked_constructors(self, dst, src, ethertype, payload):
        f = build_frame(dst, src, ethertype, payload)
        frame = validate_frame(mii_marshal(f)).frame
        # The receiver cannot tell pad from payload: both arrive as payload.
        checked = EthernetFrame(f.dst, f.src, f.ethertype, f.payload + f.pad, b"", f.fcs)
        assert frame == checked and hash(frame) == hash(checked)
        if not f.pad:
            assert frame == f and hash(frame) == hash(f)
        assert frame.serialize() == f.serialize()
        assert frame.wire_length == f.wire_length
        for field in dataclasses.fields(EthernetFrame):
            assert type(getattr(frame, field.name)) is bytes
            assert getattr(frame, field.name) == getattr(checked, field.name)

    @pytest.mark.parametrize("length, reason", [
        (MIN_FRAME - 1, "runt"), (MIN_FRAME, None), (MAX_FRAME, None), (MAX_FRAME + 1, "oversize"),
    ])
    def test_length_bounds(self, length, reason):
        body = bytes(range(256)) * 6
        body = body[:length - 4]
        s = stream_from_wire_octets(body + crc32_bitserial_le(body))
        assert validate_frame(s).reason == reason
        corrupt = stream_from_wire_octets(body + bytes(b ^ 1 for b in crc32_bitserial_le(body)))
        assert validate_frame(corrupt).reason == (reason or "fcs_mismatch")


def stepped_verdict(stream: MiiNibbleStream) -> ValidationResult:
    """Reference verdict: clock the whole stream through the pipeline."""
    state = PipelineState().feed(stream.nibbles).finish()
    if not state.sfd_found:
        return ValidationResult(False, None, "no_sfd")
    if state.frame_length < MIN_FRAME:
        return ValidationResult(False, None, "runt")
    if state.frame_length > MAX_FRAME:
        return ValidationResult(False, None, "oversize")
    if not state.fcs_ok:
        return ValidationResult(False, None, "fcs_mismatch")
    frame = EthernetFrame(state.dst, state.src, state.ethertype,
                          state.payload, b"", state.fcs)
    return ValidationResult(True, frame, None)


# Nibble alphabets: uniform, and one rich in preamble and SFD nibbles.
nibble_streams = (st.binary(max_size=400).map(lambda b: bytes(x & 0xF for x in b))
                  | st.lists(st.sampled_from([0x5, 0xD, 0x0, 0xA]), max_size=300).map(bytes))
prefixes = st.lists(st.sampled_from([0x5, 0xD, 0x0, 0x3, 0xF]), max_size=12).map(bytes)


@st.composite
def marshalled(draw) -> bytes:
    """Nibbles of a good frame, with payload lengths at the size limits favoured."""
    n = draw(st.integers(0, 1500) | st.sampled_from([0, 45, 46, 1499, 1500]))
    return mii_marshal(make_frame(n, seed=draw(st.integers(0, 2**32 - 1)))).nibbles


class TestValidateMatchesPipeline:
    """The single-pass validator gives the clocked pipeline's verdict."""

    @given(nibble_streams)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_streams(self, nibbles):
        s = MiiNibbleStream(nibbles)
        assert validate_frame(s) == stepped_verdict(s)

    @given(prefixes, marshalled(), st.lists(st.integers(0, 15), max_size=4).map(bytes))
    @settings(max_examples=40, deadline=None)
    def test_frames_with_prefix_and_tail(self, prefix, nibbles, tail):
        s = MiiNibbleStream(prefix + nibbles + tail)
        assert validate_frame(s) == stepped_verdict(s)

    @given(marshalled(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncated_streams(self, nibbles, data):
        cut = data.draw(st.integers(0, len(nibbles)))
        s = MiiNibbleStream(nibbles[:cut])
        assert validate_frame(s) == stepped_verdict(s)

    @given(marshalled(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_corrupted_nibble(self, nibbles, data):
        i = data.draw(st.integers(0, len(nibbles) - 1))
        flip = data.draw(st.integers(1, 15))
        s = MiiNibbleStream(nibbles[:i] + bytes([nibbles[i] ^ flip]) + nibbles[i + 1:])
        assert validate_frame(s) == stepped_verdict(s)


# ---------------------------------------------------------------------------
# abort_transmission
# ---------------------------------------------------------------------------

class TestAbort:
    def test_aborted_stream_rejected_fcs_mismatch(self):
        f = make_frame(100, seed=7)
        s = mii_marshal(f)
        aborted = abort_transmission(s, len(s) // 2)
        result = validate_frame(aborted)
        assert not result.accepted
        assert result.reason == "fcs_mismatch"

    def test_unaborted_control_accepts(self):
        f = make_frame(100, seed=7)
        assert validate_frame(mii_marshal(f)).accepted

    def test_length_preserved(self):
        s = mii_marshal(make_frame(64, seed=8))
        aborted = abort_transmission(s, 50)
        assert len(aborted) == len(s)

    def test_prefix_before_fcs_untouched(self):
        s = mii_marshal(make_frame(64, seed=8))
        aborted = abort_transmission(s, 50)
        assert aborted.nibbles[:-8] == s.nibbles[:-8]
        assert all(a == b ^ 0xF for a, b in zip(aborted.nibbles[-8:], s.nibbles[-8:]))

    def test_abort_point_validation(self):
        s = mii_marshal(make_frame(0))
        with pytest.raises(ValueError):
            abort_transmission(s, 15)
        with pytest.raises(ValueError):
            abort_transmission(s, len(s) - 7)
        abort_transmission(s, 16)
        abort_transmission(s, len(s) - 8)

    def test_abort_error_messages(self):
        with pytest.raises(ValueError, match="stream of 23 nibbles is too short to abort"):
            abort_transmission(MiiNibbleStream(bytes(23)), 16)
        with pytest.raises(ValueError, match=r"abort_at 17 outside legal range \[16, 16\]"):
            abort_transmission(MiiNibbleStream(bytes(24)), 17)

    @pytest.mark.parametrize("nibbles, expected", [
        (bytes([0] * 20 + [5, 13, 0, 0]), "0000000000000000ffffffff"),
        (bytes([0] * 17 + [5, 13] + [0] * 7), "000000000000000005ffffffff"),
    ], ids=["sfd-at-21-of-24", "sfd-at-18-of-26"])
    def test_sfd_inside_the_fcs_nibbles(self, nibbles, expected):
        # Nothing lies between the SFD and the FCS, so the FCS covers no
        # octets: the complement of crc32(b"") = 0, laid over the last 8 nibbles.
        s = MiiNibbleStream(nibbles)
        assert abort_transmission(s, 16).to_string() == expected
        assert validate_frame(s).reason == "runt"

    @pytest.mark.parametrize("junk", [1, 2, 3])
    @pytest.mark.parametrize("tail", [0, 1])
    def test_sfd_after_junk(self, junk, tail):
        f = make_frame(20, seed=16)
        prefix, suffix = bytes([0x3, 0x0, 0xA][:junk]), bytes([0x6] * tail)
        s = MiiNibbleStream(prefix + mii_marshal(f).nibbles + suffix)
        n = len(s)
        aborted = abort_transmission(s, 16)
        # The new FCS covers the octets from the SFD to 8 nibbles before the
        # end: with a tail nibble, an odd count whose last half octet is dropped.
        body = nibbles_to_octets_loop(s.nibbles[junk + 16:n - 8])
        bad = octets_to_nibbles_loop(bytes(b ^ 0xFF for b in crc32_bitserial_le(body)))
        assert aborted.nibbles == s.nibbles[:n - 8] + bad
        assert validate_frame(aborted).reason == "fcs_mismatch"
        # The receiver drops a dangling tail nibble and accepts the frame.
        assert validate_frame(s).frame.serialize() == f.serialize()


# ---------------------------------------------------------------------------
# Signature hook
# ---------------------------------------------------------------------------

class TestSignature:
    def test_sign_verify_round_trip(self):
        hook = keyed_checksum_hook("unit-signer")
        f = make_frame(64, seed=10)
        signed = sign_frame(f, hook)
        assert verify_frame(signed, hook).accepted

    def test_single_bit_flip_rejected(self):
        hook = keyed_checksum_hook("unit-signer")
        signed = sign_frame(make_frame(20, seed=11), hook)
        payload = bytearray(signed.payload)
        for byte_idx in range(0, len(payload), 7):
            for bit in (0, 5):
                flipped = bytearray(payload)
                flipped[byte_idx] ^= 1 << bit
                tampered = build_frame(signed.dst, signed.src, signed.ethertype, bytes(flipped))
                assert not verify_frame(tampered, hook).accepted

    def test_different_signer_rejected(self):
        signed = sign_frame(make_frame(5, seed=12), keyed_checksum_hook("alice"))
        result = verify_frame(signed, keyed_checksum_hook("mallory"))
        assert not result.accepted
        assert result.reason == "signature_invalid"

    def test_unsigned_frame_rejected(self):
        hook = keyed_checksum_hook("unit-signer")
        assert not verify_frame(make_frame(30, seed=13), hook).accepted

    def test_payload_shorter_than_tag_rejected(self):
        hook = keyed_checksum_hook("unit-signer")
        result = verify_frame(make_frame(hook.tag_length - 1, seed=15), hook)
        assert (result.accepted, result.reason) == (False, "signature_invalid")

    def test_tag_budget_boundary(self):
        hook = keyed_checksum_hook("unit-signer")
        ok = build_frame(DST, SRC, 0x0800, bytes(1500 - hook.tag_length))
        signed = sign_frame(ok, hook)
        assert len(signed.payload) == 1500
        too_big = build_frame(DST, SRC, 0x0800, bytes(1500 - hook.tag_length + 1))
        with pytest.raises(FrameError):
            sign_frame(too_big, hook)

    def test_hook_contract_on_random_messages(self):
        hook = keyed_checksum_hook("contract")
        rng = np.random.default_rng(14)
        for _ in range(50):
            m = rng.bytes(int(rng.integers(0, 64)))
            assert hook.verify(m, hook.sign(m))
