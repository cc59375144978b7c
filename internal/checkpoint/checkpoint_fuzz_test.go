package checkpoint

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/tensor"
)

// FuzzCheckpointRead feeds arbitrary bytes to Read. It must return an
// error or a File, never panic; a File it accepts must survive Write→Read
// unchanged (every float compared bit for bit) with the same Sum.
func FuzzCheckpointRead(f *testing.F) {
	tiny := Snapshot(models.BuildMLP("mlp", []int{3, 2}, rand.New(rand.NewSource(1))), 1, 5)
	tiny.AddExtra("momentum", tensor.FromSlice([]float64{math.Inf(1), math.Copysign(0, -1), math.NaN()}, 3))
	var valid bytes.Buffer
	if err := tiny.Write(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint"))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := Read(bytes.NewReader(b))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := got.Write(&buf); err != nil {
			t.Fatalf("accepted checkpoint does not encode: %v", err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading an accepted checkpoint: %v", err)
		}
		if !sameFile(got, again) {
			t.Fatalf("Write→Read changed the checkpoint:\n%+v\n%+v", got, again)
		}
		s1, err1 := got.Sum()
		s2, err2 := again.Sum()
		if err1 != nil || err2 != nil || s1 != s2 {
			t.Fatalf("Sum changed across Write→Read: %x (%v) vs %x (%v)", s1, err1, s2, err2)
		}
	})
}

// sameFile compares two Files field by field, floats by bit pattern (so
// NaN payloads count) and nil slices equal to empty ones (gob does not
// distinguish them).
func sameFile(a, b *File) bool {
	if a.Version != b.Version || a.Epoch != b.Epoch || a.Step != b.Step || a.World != b.World {
		return false
	}
	return sameEntries(a.Params, b.Params) && sameEntries(a.Buffers, b.Buffers) &&
		sameEntries(a.Extra, b.Extra)
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Shape) != len(b[i].Shape) || len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Shape {
			if a[i].Shape[j] != b[i].Shape[j] {
				return false
			}
		}
		for j := range a[i].Data {
			if math.Float64bits(a[i].Data[j]) != math.Float64bits(b[i].Data[j]) {
				return false
			}
		}
	}
	return true
}
