package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/device"
	"phideep/internal/sim"
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

// FuzzDecodeCheckpoint feeds DecodeCheckpoint arbitrary bytes. The harness
// rewrites the trailing CRC-64 to match the mutated body, so mutations get
// past the checksum to the field parser. A rejected input must yield a nil
// checkpoint; an accepted one must encode back to the same bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	ctx := NewContext(device.New(sim.XeonPhi5110P(), true, nil), Improved, 0, 1)
	m, err := autoencoder.Build(ctx, autoencoder.Config{Visible: 8, Hidden: 3, Batch: 2, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var blob bytes.Buffer
	if err := m.SaveState(&blob); err != nil {
		f.Fatal(err)
	}
	m.Free()
	f.Add(EncodeCheckpoint(&Checkpoint{
		Step: 5, Chunk: 2, Examples: 10, FirstLoss: 0.7, EpochLossSum: 1.2,
		EpochLossN: 2, EpochLoss: []float64{0.7, 0.5}, Model: blob.Bytes(),
	}))
	f.Add(EncodeCheckpoint(&Checkpoint{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		if len(data) >= 16 {
			binary.LittleEndian.PutUint64(data[len(data)-8:], crc64.Checksum(data[4:len(data)-8], ckptCRC))
		}
		c, err := DecodeCheckpoint(data)
		if err != nil {
			if c != nil {
				t.Fatalf("error %v came with a checkpoint", err)
			}
			return
		}
		if out := EncodeCheckpoint(c); !bytes.Equal(out, data) {
			t.Fatalf("accepted %d bytes encode back as %d different ones", len(data), len(out))
		}
	})
}

// TestWriteFileAtomicFailingSave: a save callback that fails halfway leaves
// the previous file byte-identical and no temporary file behind, and a
// later successful write replaces it whole.
func TestWriteFileAtomicFailingSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.phck")
	prev := &Checkpoint{Step: 3, Model: []byte("previous")}
	if err := WriteCheckpoint(path, prev); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("save failed")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("torn")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic error %v, want the save error", err)
	}
	checkFile := func(want []byte) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file holds %q, want %q", got, want)
		}
		if tmps, _ := filepath.Glob(path + ".tmp*"); len(tmps) != 0 {
			t.Fatalf("temporary files left behind: %v", tmps)
		}
	}
	checkFile(EncodeCheckpoint(prev))

	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("next"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	checkFile([]byte("next"))
}
