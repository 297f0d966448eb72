package dist

import (
	"encoding/binary"
	"errors"
	"fmt"

	"filemig/internal/trace"
)

// The wire framing for everything that crosses the coordinator/worker
// boundary as a body: claim responses, plan descriptions, and result
// uploads. HTTP already delimits messages, but a fault-injecting (or
// merely unreliable) transport can truncate or bit-flip a body without
// breaking the HTTP framing around it — so every body carries its own
// magic, length, and CRC-32C, and a receiver either gets exactly the
// bytes the sender framed or a decode error that triggers a retry.
// Journal spool files reuse the same frame, giving a restarted
// coordinator the same protection against torn writes.

// frameMagic opens every framed body. The trailing newline keeps a
// frame from ever parsing as one of the repository's ASCII headers.
const frameMagic = "#dist-frame f1\n"

// frameHeadLen is the length of a frame's magic and length field: the
// bytes that say how long the whole frame is.
const frameHeadLen = len(frameMagic) + 4

// maxFramePayload bounds the declared payload length (1 GiB) so a
// corrupt length field cannot drive a huge allocation.
const maxFramePayload = 1 << 30

// ErrFrame is wrapped by every frame decode failure.
var ErrFrame = errors.New("dist: bad frame")

// EncodeFrame wraps payload in the dist wire frame: magic, big-endian
// u32 length, payload, big-endian CRC-32C of the payload.
func EncodeFrame(payload []byte) []byte {
	return AppendFrame(make([]byte, 0, frameHeadLen+len(payload)+4), payload)
}

// AppendFrame appends payload, wrapped in the wire frame, to dst and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = append(dst, frameMagic...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, trace.Checksum(payload))
}

// DecodeFrame unwraps one frame, verifying magic, length, and
// checksum. The returned slice aliases b. Trailing bytes after the
// frame are an error: a frame is a whole body, not a stream element.
func DecodeFrame(b []byte) ([]byte, error) {
	payload, rest, err := NextFrame(b)
	if err != nil {
		return nil, err
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after frame", ErrFrame, len(rest))
	}
	return payload, nil
}

// NextFrame unwraps the first frame in b, verifying magic, length, and
// checksum, and returns the bytes after it — the stream-element sibling
// of DecodeFrame, for concatenated frames such as a migd checkpoint
// stripe entry. Both returned slices alias b.
func NextFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < len(frameMagic)+8 {
		return nil, nil, fmt.Errorf("%w: %d bytes is shorter than any frame", ErrFrame, len(b))
	}
	if string(b[:len(frameMagic)]) != frameMagic {
		return nil, nil, fmt.Errorf("%w: missing magic", ErrFrame)
	}
	body := b[len(frameMagic):]
	n := binary.BigEndian.Uint32(body[:4])
	if n > maxFramePayload {
		return nil, nil, fmt.Errorf("%w: declared payload %d exceeds %d", ErrFrame, n, maxFramePayload)
	}
	body = body[4:]
	if uint64(len(body)) < uint64(n)+4 {
		return nil, nil, fmt.Errorf("%w: truncated (want %d payload+crc bytes, have %d)", ErrFrame, n+4, len(body))
	}
	payload = body[:n]
	if got, want := trace.Checksum(payload), binary.BigEndian.Uint32(body[n:n+4]); got != want {
		return nil, nil, fmt.Errorf("%w: payload crc 0x%08x != stored 0x%08x", ErrFrame, got, want)
	}
	return payload, body[n+4:], nil
}
