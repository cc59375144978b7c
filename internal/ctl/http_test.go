package ctl

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestSubmitOversizedSpecRejected: a JobSpec body over maxJobSpecBytes is
// refused with 413 before it is decoded, and no job record is created; a
// spec just under the limit still gets an ordinary verdict.
func TestSubmitOversizedSpecRejected(t *testing.T) {
	d, err := NewDaemon(Config{
		Fleet:      Fleet{Workers: 1},
		StoreDir:   t.TempDir(),
		ScratchDir: t.TempDir(),
		Heartbeat:  fastHeartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h := NewHandler(d)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", strings.NewReader(body)))
		return rec
	}

	rec := post(`{"name": "` + strings.Repeat("a", maxJobSpecBytes) + `"}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d, want 413 (body %s)", rec.Code, rec.Body)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("oversized spec: body %q is not an error envelope", rec.Body)
	}
	if jobs := d.Jobs(); len(jobs) != 0 {
		t.Errorf("oversized spec created %d job records", len(jobs))
	}

	// Under the limit the body is decoded as usual: this one is invalid
	// JSON for a JobSpec field, so it is a plain 400.
	rec = post(`{"name": 7}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad spec: status %d, want 400", rec.Code)
	}
}

// TestSubmitSpecWithPrecisionRejected: K-FAC has one compute precision, so
// a spec that still carries the removed kfac.precision field is an unknown
// field to the strict decoder — 400 with the error envelope, and no job
// record.
func TestSubmitSpecWithPrecisionRejected(t *testing.T) {
	d, err := NewDaemon(Config{
		Fleet:      Fleet{Workers: 2},
		StoreDir:   t.TempDir(),
		ScratchDir: t.TempDir(),
		Heartbeat:  fastHeartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	body := strings.Replace(smokeJobSpec, `"kfac": {"dist_mode": "memopt"}`,
		`"kfac": {"dist_mode": "memopt", "precision": "f32"}`, 1)
	if body == smokeJobSpec {
		t.Fatal("test spec lost its kfac block")
	}
	rec := httptest.NewRecorder()
	NewHandler(d).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("spec with kfac.precision: status %d, want 400 (body %s)", rec.Code, rec.Body)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, `unknown field "precision"`) {
		t.Errorf("body %q is not an unknown-field error envelope", rec.Body)
	}
	if jobs := d.Jobs(); len(jobs) != 0 {
		t.Errorf("spec with kfac.precision created %d job records", len(jobs))
	}
}
