package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Checkpointer is implemented by Trainables that can serialize their full
// resumable training state (parameters plus the sampling-RNG stream). The
// autoencoder and rbm Models implement it; TrainConfig's checkpoint and
// resume options require it.
type Checkpointer interface {
	SaveState(w io.Writer) error
	RestoreState(r io.Reader) error
}

// Checkpoint is one crash-consistent snapshot of a training run: the run
// cursor (enough to re-enter Algorithm 1's chunk loop at the exact point
// the snapshot was taken) plus the model's opaque state blob.
//
// On-disk layout (little endian):
//
//	magic   [4]byte  "PHCK"
//	version uint32   1
//	step, chunk, examples, skipped  uint64
//	firstLoss, epochLossSum         float64
//	epochLossN                      uint64
//	epochLoss  uint64 count + count × float64
//	model      uint64 length + blob (Checkpointer.SaveState output)
//	crc     uint64   CRC-64/ECMA of everything after the magic
type Checkpoint struct {
	Step     int
	Chunk    int
	Examples int
	Skipped  int

	FirstLoss    float64
	EpochLossSum float64
	EpochLossN   int
	EpochLoss    []float64

	Model []byte
}

var ckptMagic = [4]byte{'P', 'H', 'C', 'K'}

const ckptVersion = 1

var ckptCRC = crc64.MakeTable(crc64.ECMA)

// ErrCheckpointTruncated is wrapped by DecodeCheckpoint's errors for a
// checkpoint whose checksum holds but whose body ends before a field its
// own header promises — including an epoch-loss count no file could hold.
var ErrCheckpointTruncated = errors.New("core: checkpoint truncated")

// encode renders the checkpoint to its on-disk byte form.
func (c *Checkpoint) encode() []byte {
	var body bytes.Buffer
	le := binary.LittleEndian
	w64 := func(v uint64) {
		var b [8]byte
		le.PutUint64(b[:], v)
		body.Write(b[:])
	}
	wf := func(v float64) { w64(math.Float64bits(v)) }
	var ver [4]byte
	le.PutUint32(ver[:], ckptVersion)
	body.Write(ver[:])
	w64(uint64(c.Step))
	w64(uint64(c.Chunk))
	w64(uint64(c.Examples))
	w64(uint64(c.Skipped))
	wf(c.FirstLoss)
	wf(c.EpochLossSum)
	w64(uint64(c.EpochLossN))
	w64(uint64(len(c.EpochLoss)))
	for _, v := range c.EpochLoss {
		wf(v)
	}
	w64(uint64(len(c.Model)))
	body.Write(c.Model)

	out := make([]byte, 0, 4+body.Len()+8)
	out = append(out, ckptMagic[:]...)
	out = append(out, body.Bytes()...)
	var crc [8]byte
	le.PutUint64(crc[:], crc64.Checksum(body.Bytes(), ckptCRC))
	return append(out, crc[:]...)
}

// decodeCheckpoint parses and verifies an encoded checkpoint.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < 4+4+8 || !bytes.Equal(data[:4], ckptMagic[:]) {
		return nil, fmt.Errorf("core: checkpoint: bad magic or truncated file")
	}
	body, crcBytes := data[4:len(data)-8], data[len(data)-8:]
	le := binary.LittleEndian
	if crc64.Checksum(body, ckptCRC) != le.Uint64(crcBytes) {
		return nil, fmt.Errorf("core: checkpoint: checksum mismatch (file corrupt)")
	}
	if v := le.Uint32(body[:4]); v != ckptVersion {
		return nil, fmt.Errorf("core: checkpoint: version %d, want %d", v, ckptVersion)
	}
	body = body[4:]
	r64 := func() (uint64, error) {
		if len(body) < 8 {
			return 0, fmt.Errorf("%w: body ends inside a field", ErrCheckpointTruncated)
		}
		v := le.Uint64(body[:8])
		body = body[8:]
		return v, nil
	}
	c := &Checkpoint{}
	for _, dst := range []*int{&c.Step, &c.Chunk, &c.Examples, &c.Skipped} {
		v, err := r64()
		if err != nil {
			return nil, err
		}
		*dst = int(v)
	}
	for _, dst := range []*float64{&c.FirstLoss, &c.EpochLossSum} {
		v, err := r64()
		if err != nil {
			return nil, err
		}
		*dst = math.Float64frombits(v)
	}
	n, err := r64()
	if err != nil {
		return nil, err
	}
	c.EpochLossN = int(n)
	count, err := r64()
	if err != nil {
		return nil, err
	}
	// Divide, don't multiply: count*8 wraps for count ≥ 1<<61 and would
	// let a hostile count through to make.
	if count > uint64(len(body))/8 {
		return nil, fmt.Errorf("%w: %d epoch losses in %d bytes", ErrCheckpointTruncated, count, len(body))
	}
	c.EpochLoss = make([]float64, count)
	for i := range c.EpochLoss {
		v, _ := r64()
		c.EpochLoss[i] = math.Float64frombits(v)
	}
	blobLen, err := r64()
	if err != nil {
		return nil, err
	}
	if uint64(len(body)) != blobLen {
		return nil, fmt.Errorf("core: checkpoint: model blob is %d bytes, header says %d", len(body), blobLen)
	}
	c.Model = append([]byte(nil), body...)
	return c, nil
}

// EncodeCheckpoint renders c to its on-disk PHCK byte form (magic, body,
// CRC-64) without touching the filesystem. It is the in-memory handoff
// format internal/cluster uses to ship the lead replica's state to a
// rejoining node: the same framing and checksum as a checkpoint file, so a
// corrupted handoff is detected exactly like a corrupted file.
func EncodeCheckpoint(c *Checkpoint) []byte { return c.encode() }

// DecodeCheckpoint parses and verifies bytes produced by EncodeCheckpoint
// (or read from a checkpoint file).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) { return decodeCheckpoint(data) }

// WriteCheckpoint atomically persists c to path with WriteFileAtomic, so a
// crash at any point leaves either the previous checkpoint or the new one —
// never a torn file.
func WriteCheckpoint(path string, c *Checkpoint) error {
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(c.encode())
		return err
	})
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// WriteFileAtomic streams save's output into path crash-consistently: the
// bytes go to a temporary file in the same directory, which is synced to
// stable storage, closed and renamed over path, and then the directory is
// synced so that the rename itself survives power loss. A failing save
// leaves the previous file untouched and no temporary behind.
func WriteFileAtomic(path string, save func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = save(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		err = syncDir(dir)
	}
	return err
}

// syncDir flushes a directory's entries, such as a rename into it, to
// stable storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadCheckpoint loads and verifies a checkpoint written by
// WriteCheckpoint.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	return decodeCheckpoint(data)
}
