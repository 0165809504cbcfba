package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkFleetEstimate measures the serving path at fleet scale: 16
// resident tenants, 4 concurrent clients spraying estimate requests across
// them round-robin. Against the single-tenant EstimateConcurrent benchmark
// this exposes the cost of the tenant dimension itself — path routing, the
// tenant table read lock, per-tenant admission, and 16 independent estimate
// tables sharing one process.
func BenchmarkFleetEstimate(b *testing.B) {
	const tenants = 16
	const clients = 4
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = string(rune('a'+i/4)) + string(rune('a'+i%4))
	}
	fl := New(Config{Opts: quickOpts()})
	defer fl.Close()
	h := fl.Handler()
	for i, id := range ids {
		if _, err := fl.Create(TenantSpec{App: id}); err != nil {
			b.Fatal(err)
		}
		if rec := do(b, h, "POST", "/v1/t/"+id+"/v1/telemetry", toyBody(b, 1, 30, int64(51+i))); rec.Code != http.StatusOK {
			b.Fatalf("ingest %s = %d", id, rec.Code)
		}
		if rec := do(b, h, "POST", "/v1/t/"+id+"/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
			b.Fatalf("learn %s = %d: %s", id, rec.Code, rec.Body)
		}
	}
	payload := toyEstimate(b).Bytes()

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	per := b.N / clients
	for c := 0; c < clients; c++ {
		n := per
		if c == 0 {
			n += b.N % clients
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				id := ids[int(next.Add(1))%tenants]
				req := httptest.NewRequest("POST", "/v1/t/"+id+"/v1/estimate", bytes.NewReader(payload))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Errorf("estimate %s = %d", id, rec.Code)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}
