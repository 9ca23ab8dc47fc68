package nn

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"

	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Parameter serialization: a small, versioned, deterministic binary format
// for checkpointing trained models. The shape lives in the model's Config;
// the file stores only the flat parameter data plus integrity metadata, and
// loading validates the element count against the destination ParamSet.
//
// Layout (little endian):
//
//	magic   [4]byte  "PHD1"
//	count   uint64   number of float64 parameters
//	data    count × float64
//	crc     uint64   CRC-64/ECMA of the data bytes

var paramMagic = [4]byte{'P', 'H', 'D', '1'}

var crcTable = crc64.MakeTable(crc64.ECMA)

// SaveParamSet writes the parameters of ps to w.
func SaveParamSet(w io.Writer, ps *ParamSet) error {
	if _, err := w.Write(paramMagic[:]); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	flat := ps.Flatten(nil)
	if err := binary.Write(w, binary.LittleEndian, uint64(len(flat))); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	buf := make([]byte, 8*len(flat))
	for i, v := range flat {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, crc64.Checksum(buf, crcTable)); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	return nil
}

// LoadParamSet reads parameters from r into ps. The stored element count
// must match ps exactly, and the checksum must verify; on any error ps is
// left unmodified.
func LoadParamSet(r io.Reader, ps *ParamSet) error {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("nn: load params: %w", err)
	}
	if magic != paramMagic {
		return fmt.Errorf("nn: load params: bad magic %q", magic[:])
	}
	var count uint64
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: load params: %w", err)
	}
	if int(count) != ps.Len() {
		return fmt.Errorf("nn: load params: file has %d parameters, model wants %d", count, ps.Len())
	}
	buf := make([]byte, 8*count)
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("nn: load params: %w", err)
	}
	var crc uint64
	if err := binary.Read(r, binary.LittleEndian, &crc); err != nil {
		return fmt.Errorf("nn: load params: %w", err)
	}
	if got := crc64.Checksum(buf, crcTable); got != crc {
		return fmt.Errorf("nn: load params: checksum mismatch (file corrupt)")
	}
	flat := tensor.NewVector(int(count))
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	ps.Unflatten(flat)
	return nil
}

// SaveState writes a model's resumable training state: the parameter set
// in the format above, then the sampling stream's state, so a restored
// model continues the exact stream (Gibbs samples, corruption masks).
func SaveState(w io.Writer, ps *ParamSet, r *rng.RNG) error {
	if err := SaveParamSet(w, ps); err != nil {
		return err
	}
	state, err := r.MarshalBinary()
	if err != nil {
		return err
	}
	if _, err := w.Write(state); err != nil {
		return fmt.Errorf("nn: save state: %w", err)
	}
	return nil
}

// LoadState reads state written by SaveState into ps and r.
func LoadState(rd io.Reader, ps *ParamSet, r *rng.RNG) error {
	if err := LoadParamSet(rd, ps); err != nil {
		return err
	}
	state := make([]byte, rng.MarshaledSize())
	if _, err := io.ReadFull(rd, state); err != nil {
		return fmt.Errorf("nn: load state: %w", err)
	}
	return r.UnmarshalBinary(state)
}
