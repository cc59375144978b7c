package ctl

import (
	"bytes"
	"encoding/json"
	"testing"
)

// smokeJobSpec is the tiny K-FAC job the CI kfacd smoke step submits.
const smokeJobSpec = `{
  "name": "ci-smoke",
  "user": "ci",
  "model": {"kind": "mlp", "dims": [16, 8, 4], "classes": 4, "channels": 1},
  "data": {"train": 64, "test": 16, "classes": 4, "channels": 1, "size": 4, "seed": 7},
  "world": 2,
  "epochs": 2,
  "batch_per_rank": 4,
  "lr": 0.05,
  "kfac": {"dist_mode": "memopt"}
}`

// decodeJobSpec decodes a JobSpec body the way POST /api/v1/jobs does:
// one JSON value, unknown fields rejected.
func decodeJobSpec(b []byte) (*JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, err
	}
	return &spec, nil
}

// FuzzJobSpecDecode feeds arbitrary bodies through the handler's decoder
// and Validate. Neither may panic, and a spec that validates must survive
// an encode/decode round trip: the re-decoded spec validates again and
// encodes to the same bytes (Validate only fills defaults, so it is
// idempotent on its own output).
func FuzzJobSpecDecode(f *testing.F) {
	f.Add([]byte(smokeJobSpec))
	f.Add([]byte(`{"name": "r", "model": {"kind": "cifar-resnet", "blocks": 1, "width": 4},
		"data": {"train": 8, "test": 4, "classes": 10, "channels": 3, "size": 8},
		"world": 3, "min_world": 2, "epochs": 2, "batch_per_rank": 2, "lr": 0.1,
		"kfac": {"dist_mode": "hybrid", "grad_worker_frac": 0.5, "compression": "topk", "topk_fraction": 0.1},
		"chaos": {"kill_rank": 1, "kill_at_epoch": 1}}`))
	f.Add([]byte(`{"kfac": {"precision": "f32"}}`))
	f.Add([]byte(`{"model": {"kind": "mlp", "dims": [0]}}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(body)
		if err != nil {
			return
		}
		if spec.Validate() != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("valid spec does not encode: %v", err)
		}
		again, err := decodeJobSpec(enc)
		if err != nil {
			t.Fatalf("re-decoding a valid spec: %v\n%s", err, enc)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-decoded spec no longer validates: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the spec:\n%s\n%s", enc, enc2)
		}
	})
}
