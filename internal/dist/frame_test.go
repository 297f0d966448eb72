package dist

import (
	"bytes"
	"errors"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xa5}, 1<<16)} {
		enc := EncodeFrame(payload)
		got, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("decode(encode(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed %d-byte payload", len(payload))
		}
	}
}

// TestFrameRejectsDamage flips, truncates, and extends an encoded frame
// and requires every mutation to fail the decode — the property the
// whole retry machinery leans on.
func TestFrameRejectsDamage(t *testing.T) {
	enc := EncodeFrame([]byte("the quick brown fox"))
	for i := range enc {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x40
		if _, err := DecodeFrame(bad); err == nil {
			t.Errorf("bit flip at byte %d decoded cleanly", i)
		} else if !errors.Is(err, ErrFrame) {
			t.Errorf("bit flip at byte %d: error %v does not wrap ErrFrame", i, err)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeFrame(enc[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	if _, err := DecodeFrame(append(bytes.Clone(enc), 0)); err == nil {
		t.Error("trailing byte decoded cleanly")
	}
}

// FuzzDistFrame fuzzes both directions: arbitrary bytes must never
// panic the decoder, and any input that does decode must re-encode to
// a frame carrying the same payload.
func FuzzDistFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(frameMagic))
	f.Add(EncodeFrame(nil))
	f.Add(EncodeFrame([]byte("seed payload")))
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, err := DecodeFrame(b)
		if err != nil {
			return
		}
		back, err := DecodeFrame(EncodeFrame(payload))
		if err != nil {
			t.Fatalf("re-encode of decoded payload fails: %v", err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatal("re-encode changed the payload")
		}
	})
}
