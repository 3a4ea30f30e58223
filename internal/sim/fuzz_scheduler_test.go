package sim

import (
	"encoding/binary"
	"testing"
)

// decodeScript turns an arbitrary byte string into a scheduler op script.
// The decoding is total — any input is a valid script — so the fuzzer can
// explore freely. Deltas are quantized to 1/8 units to provoke exact ties,
// and one op in sixteen pushes a far-future outlier.
func decodeScript(data []byte) []scriptOp {
	var ops []scriptOp
	for i := 0; i+2 < len(data); i += 3 {
		sel, a, b := data[i], data[i+1], data[i+2]
		delta := Time(float64(uint16(a)<<8|uint16(b)) / 8)
		if sel&0xF0 == 0xF0 {
			delta *= 1e18 // far-future outlier
		}
		switch sel % 4 {
		case 0, 1:
			ops = append(ops, scriptOp{kind: 0, delta: delta})
		case 2:
			ops = append(ops, scriptOp{kind: 1})
		case 3:
			if sel&8 != 0 {
				ops = append(ops, scriptOp{kind: 3, delta: delta, idx: int(a)})
			} else {
				ops = append(ops, scriptOp{kind: 2, idx: int(a)})
			}
		}
	}
	return ops
}

// FuzzScheduler drives the heap through arbitrary op scripts with the
// linear-scan queue as the oracle: any divergence in pop order is a heap
// bug. This is the adversarial arm of the wall in scheduler_equiv_test.go.
func FuzzScheduler(f *testing.F) {
	// Seed with shapes the random suite found interesting: steady pushes,
	// tie storms, push/pop churn, far-future outliers, and remove/update
	// mixes.
	f.Add([]byte{0, 0, 8, 0, 0, 8, 2, 0, 0, 1, 0, 16, 2, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0})
	f.Add([]byte{0xF0, 0, 1, 0, 0, 1, 2, 0, 0, 2, 0, 0, 0xF1, 0xFF, 0xFF})
	f.Add([]byte{3, 1, 9, 11, 2, 5, 0, 0, 3, 2, 0, 0, 11, 0, 7})
	var grow []byte
	for i := 0; i < 64; i++ {
		var d [3]byte
		d[0] = byte(i % 4)
		binary.BigEndian.PutUint16(d[1:], uint16(i*37))
		grow = append(grow, d[:]...)
	}
	f.Add(grow)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("script too long")
		}
		assertMatchesOracle(t, decodeScript(data), "fuzz")
	})
}
