package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func scrape(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServeMetricsAndExpvar(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sim_migrations_total").Add(11)
	reg.Timer("mapcal_solve_duration_seconds").Observe(3 * time.Millisecond)

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body, ctype := scrape(t, "http://"+srv.Addr()+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Errorf("content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE sim_migrations_total counter",
		"sim_migrations_total 11",
		"# TYPE mapcal_solve_duration_seconds histogram",
		`mapcal_solve_duration_seconds_bucket{le="+Inf"} 1`,
		"mapcal_solve_duration_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}

	vars, _ := scrape(t, "http://"+srv.Addr()+"/debug/vars")
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("expvar payload is not JSON: %v", err)
	}
	if _, ok := decoded["telemetry"]; !ok {
		t.Error("expvar is missing the telemetry var")
	}
}

func TestServeRejectsBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:99999", NewRegistry()); err == nil {
		t.Error("bad address accepted")
	}
}
