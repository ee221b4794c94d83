"""Clean-room software model of an Ethernet MAC as a deep pipeline.

Frames are marshalled to 4-bit MII nibbles (low nibble of each octet
first, 25 MHz clock). :func:`validate_frame` de-marshals a whole stream in
a single pass: it hunts the SFD, packs the octets and checks the frame
check sequence with zlib's CRC-32. :class:`PipelineState` is the clocked
model of the same reception, one nibble per clock; it serves per-clock
field timing. Header fields become readable the instant their last
nibble arrives, which gives cut-through access to the destination
address long before the frame ends; the FCS verdict is only
available at end of stream. A transmission can be aborted mid-stream by
completing it with a deliberately corrupted FCS, which any compliant
receiver will discard.

No CSMA/CD, duplex, inter-frame gap, or VLAN handling: one frame per
stream, ethertype is two opaque octets.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FrameError

MIN_FRAME = 64
MAX_FRAME = 1518
MIN_PAYLOAD = 46
MAX_PAYLOAD = 1500
HEADER_LEN = 14
FCS_LEN = 4
PREAMBLE_OCTETS = b"\x55" * 7
SFD_OCTET = 0xD5

#: Any character but an ASCII hex digit. ``int(s, 16)`` alone would also
#: take a sign, ``0x``, ``_``, surrounding spaces and any Unicode digit.
_NON_HEX = re.compile(r"[^0-9a-fA-F]")
#: The 16 nibble values, and ``bytes.translate`` tables between them and ASCII hex digits.
_NIBBLES = bytes(range(16))
_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdefABCDEF", _NIBBLES + _NIBBLES[10:])
_NIBBLE_TO_HEX = bytes.maketrans(_NIBBLES, b"0123456789abcdef")
#: Octet to MII nibble pair (low nibble first, one little-endian ``uint16``) and back;
#: only pairs of nibbles in [0, 15] have an octet, as ``MiiNibbleStream`` ensures.
_PAIRS = {(o & 0xF) | (o >> 4) << 8: o for o in range(256)}
_SPLIT = np.array(list(_PAIRS), dtype="<u2")
_PACK = np.array([_PAIRS.get(v, 0) for v in range(1 << 12)], dtype=np.uint8)
_COMPLEMENT = bytes(range(255, -1, -1))  # a ``bytes.translate`` table: ~octet


def _hex_int(text: str, what: str) -> int:
    """``int(text, 16)`` for one or more ASCII hex digits only."""
    if not text or _NON_HEX.search(text):
        raise FrameError(f"bad {what} {text!r}: expected hex digits 0-9a-fA-F")
    return int(text, 16)


def crc32_fcs(octets: bytes) -> bytes:
    """Ethernet frame check sequence over the given octets.

    Reflected CRC-32, register initialised to all ones, final complement;
    returned least-significant octet first as transmitted on the wire.
    """
    return zlib.crc32(octets).to_bytes(4, "little")


def mac_address(value: bytes | str) -> bytes:
    """Normalise a MAC address given as 6 raw octets or colon-separated hex."""
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 6:
            raise FrameError(f"bad MAC address {value!r}")
        octets = [_hex_int(p, "MAC address octet") for p in parts]
        for part, octet in zip(parts, octets):
            if octet > 0xFF:
                raise FrameError(f"bad MAC address octet {part!r}: above ff")
        value = bytes(octets)
    value = bytes(value)
    if len(value) != 6:
        raise FrameError(f"MAC address must be 6 octets, got {len(value)}")
    return value


def ethertype_bytes(value: bytes | int | str) -> bytes:
    """Two ethertype octets from raw octets, an int or hex digits."""
    if isinstance(value, str):
        value = _hex_int(value, "ethertype")
    if isinstance(value, int):
        if not 0 <= value <= 0xFFFF:
            raise FrameError(f"ethertype {value:#x} outside [0, 0xffff]")
        return value.to_bytes(2, "big")
    value = bytes(value)
    if len(value) != 2:
        raise FrameError(f"ethertype must be 2 octets, got {len(value)}")
    return value


@dataclass(frozen=True)
class EthernetFrame:
    """Octet-level 802.3 frame, FCS included."""

    dst: bytes
    src: bytes
    ethertype: bytes
    payload: bytes
    pad: bytes
    fcs: bytes

    def __post_init__(self) -> None:
        if len(self.dst) != 6 or len(self.src) != 6:
            raise FrameError("dst and src must each be 6 octets")
        if len(self.ethertype) != 2:
            raise FrameError("ethertype must be 2 octets")
        if len(self.payload) > MAX_PAYLOAD:
            raise FrameError(f"payload {len(self.payload)} exceeds {MAX_PAYLOAD} octets")
        if len(self.fcs) != FCS_LEN:
            raise FrameError("fcs must be 4 octets")
        total = self.wire_length
        if not MIN_FRAME <= total <= MAX_FRAME:
            raise FrameError(f"frame length {total} outside [{MIN_FRAME}, {MAX_FRAME}]")
        good = crc32_fcs(b"".join((self.dst, self.src, self.ethertype, self.payload, self.pad)))
        if self.fcs != good:
            raise FrameError("fcs does not match frame contents")

    @property
    def wire_length(self) -> int:
        return HEADER_LEN + len(self.payload) + len(self.pad) + FCS_LEN

    def serialize(self) -> bytes:
        return b"".join((self.dst, self.src, self.ethertype, self.payload, self.pad, self.fcs))


def build_frame(dst: bytes | str, src: bytes | str, ethertype: bytes | int | str,
                payload: bytes = b"") -> EthernetFrame:
    """Assemble a frame: pad the payload to the 46-octet minimum, append FCS."""
    dst = mac_address(dst)
    src = mac_address(src)
    ethertype = ethertype_bytes(ethertype)
    payload = bytes(payload)
    pad = bytes(max(0, MIN_PAYLOAD - len(payload)))
    fcs = crc32_fcs(b"".join((dst, src, ethertype, payload, pad)))
    return EthernetFrame(dst, src, ethertype, payload, pad, fcs)


@dataclass(frozen=True)
class MiiNibbleStream:
    """Sequence of 4-bit MII values, one per clock."""

    nibbles: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "nibbles", bytes(self.nibbles))
        if self.nibbles.translate(None, _NIBBLES):
            raise ValueError("nibble values must be in [0, 15]")

    def __len__(self) -> int:
        return len(self.nibbles)

    def to_string(self) -> str:
        """Contiguous hex-digit form, one digit per nibble."""
        return self.nibbles.translate(_NIBBLE_TO_HEX).decode("ascii")

    @classmethod
    def from_string(cls, text: str) -> "MiiNibbleStream":
        """Inverse of :meth:`to_string`; surrounding whitespace is ignored and
        any other character but an ASCII hex digit is a ``ValueError``."""
        text = text.strip()
        bad = _NON_HEX.search(text)
        if bad:
            raise ValueError(f"non-hex digit {bad.group()!r} at position {bad.start()} "
                             "of nibble string")
        return cls(text.encode("ascii").translate(_HEX_TO_NIBBLE))


def octets_to_nibbles(octets: bytes) -> bytes:
    """Split octets into MII nibbles, low nibble first; inverse of
    :func:`_nibbles_to_octets`."""
    return _SPLIT.take(np.frombuffer(bytes(octets), dtype=np.uint8)).tobytes()


def stream_from_wire_octets(octets: bytes) -> MiiNibbleStream:
    """Nibble stream for raw wire octets (dst..fcs), preamble and SFD prepended."""
    return MiiNibbleStream(octets_to_nibbles(PREAMBLE_OCTETS + bytes([SFD_OCTET]) + octets))


def mii_marshal(frame: EthernetFrame) -> MiiNibbleStream:
    """Marshal a frame onto the MII: 7x55 preamble, D5 SFD, then the frame."""
    return stream_from_wire_octets(frame.serialize())


#: Octets received after the SFD when each header field completes, and
#: the octet it starts at.
_HEADER_FIELDS = {6: ("dst", 0), 12: ("src", 6), HEADER_LEN: ("ethertype", 12)}


class PipelineState:
    """De-marshalling pipeline for one frame reception.

    Each :meth:`step` consumes exactly one nibble and advances the cursor
    by one. Before the SFD a nibble only matters as far as it is 0x5: an
    0xD straight after an 0x5 is the SFD. After it, nibbles pack into
    octets, low nibble first. Fields appear in ``fields_valid`` at the
    earliest clock at which their last nibble has arrived; payload,
    length, and the FCS verdict can only be known once the stream ends,
    signalled by :meth:`finish`.

    Stepping mutates the state in place and returns it; a state must not be
    stepped concurrently from multiple threads.
    """

    __slots__ = (
        "cursor", "fields_valid", "sfd_found", "_finished", "_after_5", "_octets", "_lo",
        "dst", "src", "ethertype", "frame_length", "payload", "fcs", "fcs_ok",
    )

    def __init__(self) -> None:
        self.cursor = 0
        self.fields_valid: dict[str, int] = {}
        self.sfd_found = False
        self._finished = False
        self._after_5 = False
        self._octets = bytearray()
        self._lo: int | None = None  # low nibble of the octet under way
        self.dst: bytes | None = None
        self.src: bytes | None = None
        self.ethertype: bytes | None = None
        self.frame_length: int | None = None
        self.payload: bytes | None = None
        self.fcs: bytes | None = None
        self.fcs_ok: bool | None = None

    def step(self, nibble: int) -> "PipelineState":
        if not 0 <= nibble <= 15:
            raise ValueError(f"nibble value {nibble} out of range [0, 15]")
        if self._finished:
            raise RuntimeError("pipeline already finished")
        self.cursor += 1
        if not self.sfd_found:
            # Preamble violations only drop the hunt back a step, never abort it.
            if nibble == 0xD and self._after_5:
                self.sfd_found = True
                self.fields_valid["sfd"] = self.cursor
            self._after_5 = nibble == 0x5
            return self
        lo = self._lo
        if lo is None:
            self._lo = nibble
            return self
        octets = self._octets
        octets.append(lo | (nibble << 4))
        self._lo = None
        field = _HEADER_FIELDS.get(len(octets))
        if field:
            name, start = field
            setattr(self, name, bytes(octets[start:]))
            self.fields_valid[name] = self.cursor
        return self

    def feed(self, nibbles: bytes) -> "PipelineState":
        """Step once per nibble, in order."""
        step = self.step
        for n in nibbles:
            step(n)
        return self

    def finish(self) -> "PipelineState":
        """Signal end of stream (MII data-valid deassertion).

        Length, payload and the FCS verdict become valid here: a dangling
        half octet never completed and is dropped.
        """
        if self._finished:
            return self
        cur = self.cursor
        if self.sfd_found:
            octets = bytes(self._octets)
            self.frame_length = len(octets)
            self.fields_valid["length"] = cur
            if len(octets) >= HEADER_LEN + FCS_LEN:
                self.payload = octets[HEADER_LEN:-FCS_LEN]
                self.fcs = octets[-FCS_LEN:]
                self.fcs_ok = crc32_fcs(octets[:-FCS_LEN]) == self.fcs
                self.fields_valid["payload"] = cur
            else:
                self.fcs_ok = False
            self.fields_valid["fcs_ok"] = cur
        self._finished = True
        return self


@dataclass(frozen=True)
class ValidationResult:
    """Accepted frame or a rejection reason: no_sfd, runt, oversize, fcs_mismatch."""

    accepted: bool
    frame: EthernetFrame | None
    reason: str | None

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "reason": self.reason,
            "frame": self.frame.serialize().hex() if self.frame else None,
        }


def _sfd_index(nibbles: bytes) -> int:
    """Index of the SFD nibble, or -1: the first 0xD straight after a 0x5.

    This is the hunt rule :class:`PipelineState` applies one clock at a time.
    """
    i = nibbles.find(b"\x05\x0d")
    return i + 1 if i >= 0 else -1


def _nibbles_to_octets(nibbles: bytes) -> bytes:
    """Pack MII nibbles into octets, low nibble first; a dangling half octet is dropped."""
    return _PACK.take(np.frombuffer(nibbles, dtype="<u2", count=len(nibbles) >> 1)).tobytes()


def validate_frame(stream: MiiNibbleStream) -> ValidationResult:
    """Accept or reject the frame a whole stream carries, in one pass.

    Gives the verdict :class:`PipelineState` reaches at end of stream: hunt
    the SFD, pack the octets after it, then check the length and the FCS.
    """
    sfd = _sfd_index(stream.nibbles)
    if sfd < 0:
        return ValidationResult(False, None, "no_sfd")
    octets = _nibbles_to_octets(stream.nibbles[sfd + 1:])
    if len(octets) < MIN_FRAME:
        return ValidationResult(False, None, "runt")
    if len(octets) > MAX_FRAME:
        return ValidationResult(False, None, "oversize")
    body, fcs = octets[:-FCS_LEN], octets[-FCS_LEN:]
    if crc32_fcs(body) != fcs:
        return ValidationResult(False, None, "fcs_mismatch")
    # The checks just made imply every check of the constructor: skip them.
    frame = object.__new__(EthernetFrame)
    frame.__dict__.update(dst=body[:6], src=body[6:12], ethertype=body[12:HEADER_LEN],
                          payload=body[HEADER_LEN:], pad=b"", fcs=fcs)
    return ValidationResult(True, frame, None)


def abort_transmission(stream: MiiNibbleStream, abort_at: int) -> MiiNibbleStream:
    """Abort a transmission already under way by corrupting its checksum.

    The stream is completed to full length but its 8 FCS nibbles are
    replaced with the bitwise complement of the correct FCS, so a compliant
    receiver is guaranteed to discard the frame; a random value could
    collide with the true FCS. Nothing before the FCS changes, so the abort
    is undetectable until the stream ends.

    ``abort_at`` is the nibble index at which the abort decision takes
    effect; it must lie beyond the preamble/SFD and at least 8 nibbles
    before the end of the stream.
    """
    nibbles = stream.nibbles
    n = len(nibbles)
    if n < 24:
        raise ValueError(f"stream of {n} nibbles is too short to abort (need at least 24)")
    if not 16 <= abort_at <= n - 8:
        raise ValueError(f"abort_at {abort_at} outside legal range [16, {n - 8}]")
    sfd = _sfd_index(nibbles)
    if sfd < 0:
        raise ValueError("stream carries no SFD; nothing to abort")
    good = crc32_fcs(_nibbles_to_octets(nibbles[sfd + 1:n - 8]))
    bad = octets_to_nibbles(good.translate(_COMPLEMENT))
    return MiiNibbleStream(nibbles[:n - 8] + bad)


@dataclass(frozen=True)
class SignatureHook:
    """Pluggable signer: a tag function and its verifier.

    ``sign`` maps octets to a fixed-length tag; ``verify`` accepts exactly
    the (message, tag) pairs that ``sign`` produces.
    """

    signer_id: str
    tag_length: int
    sign: Callable[[bytes], bytes]
    verify: Callable[[bytes, bytes], bool]


def keyed_checksum_hook(signer_id: str) -> SignatureHook:
    """Bundled test signer: an 8-octet keyed double CRC-32 tag.

    NOT cryptographically secure; it exists so the signing path can be
    exercised deterministically. Real deployments provide their own hook.
    """
    key = signer_id.encode()

    def sign(message: bytes) -> bytes:
        first = crc32_fcs(key + message)
        return first + crc32_fcs(key + message + first)

    def verify(message: bytes, tag: bytes) -> bool:
        return sign(message) == tag

    return SignatureHook(signer_id, 8, sign, verify)


@dataclass(frozen=True)
class SignatureCheck:
    accepted: bool
    reason: str | None


def sign_frame(frame: EthernetFrame, hook: SignatureHook) -> EthernetFrame:
    """Append a tag over dst|src|ethertype|payload to the payload, re-FCS."""
    message = frame.dst + frame.src + frame.ethertype + frame.payload
    tag = hook.sign(message)
    if len(frame.payload) + len(tag) > MAX_PAYLOAD:
        raise FrameError(
            f"payload {len(frame.payload)} plus {len(tag)}-octet tag exceeds {MAX_PAYLOAD}"
        )
    return build_frame(frame.dst, frame.src, frame.ethertype, frame.payload + tag)


def verify_frame(frame: EthernetFrame, hook: SignatureHook) -> SignatureCheck:
    """Check the trailing payload tag; dual of :func:`sign_frame`."""
    tag_len = hook.tag_length
    if len(frame.payload) < tag_len:
        return SignatureCheck(False, "signature_invalid")
    message = frame.dst + frame.src + frame.ethertype + frame.payload[:-tag_len]
    if hook.verify(message, frame.payload[-tag_len:]):
        return SignatureCheck(True, None)
    return SignatureCheck(False, "signature_invalid")
