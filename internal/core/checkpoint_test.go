package core

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"testing"
)

// TestDecodeCheckpointHostileCount is the regression test for the length
// check that multiplied: an epoch-loss count of 1<<61 made count*8 wrap to
// zero, so a file with a valid checksum reached make([]float64, 1<<61) and
// panicked. The decoder must refuse it as truncated, as it does a count
// that is merely larger than the body.
func TestDecodeCheckpointHostileCount(t *testing.T) {
	good := EncodeCheckpoint(&Checkpoint{Step: 3, EpochLoss: []float64{1, 2}, Model: []byte("m")})
	if _, err := DecodeCheckpoint(good); err != nil {
		t.Fatal(err)
	}
	// magic(4) version(4) step chunk examples skipped firstLoss
	// epochLossSum epochLossN (7×8), then the count.
	const countOff = 4 + 4 + 7*8
	le := binary.LittleEndian
	if got := le.Uint64(good[countOff:]); got != 2 {
		t.Fatalf("count field at %d holds %d, want 2: layout moved", countOff, got)
	}
	for _, count := range []uint64{1 << 61, 1<<61 + 1, 1 << 63, ^uint64(0), 3} {
		bad := append([]byte(nil), good...)
		le.PutUint64(bad[countOff:], count)
		body := bad[4 : len(bad)-8]
		le.PutUint64(bad[len(bad)-8:], crc64.Checksum(body, ckptCRC))
		c, err := DecodeCheckpoint(bad)
		if !errors.Is(err, ErrCheckpointTruncated) {
			t.Fatalf("count %d: decoded %+v, error %v; want ErrCheckpointTruncated", count, c, err)
		}
	}
}
