package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugServer(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// A known counter must show up in /metrics, the registry's one live
	// exposure.
	Default.Counter("obs.debug_test.pings").Inc()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "uselessmiss_obs_debug_test_pings_total") {
		t.Errorf("/metrics missing Prometheus counter:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE uselessmiss_obs_debug_test_pings_total counter") {
		t.Error("/metrics missing TYPE line for the counter")
	}

	// The JSON run report is the -metrics file's job, not a live route.
	if code, _ := get(t, base+"/metrics.json"); code != http.StatusNotFound {
		t.Errorf("/metrics.json status %d, want 404", code)
	}

	if code, body := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", code)
	}
	SetReady(false)
	if code, _ := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after SetReady(false) = %d, want 503", code)
	}
	SetReady(true)
	if code, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after SetReady(true) = %d, want 200", code)
	}

	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not a JSON object: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars missing the runtime's memstats")
	}
	if _, ok := vars["uselessmiss"]; ok {
		t.Error("/debug/vars still publishes the registry under \"uselessmiss\"")
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		if code, _ := get(t, base+path); code != http.StatusOK {
			t.Errorf("%s status %d", path, code)
		}
	}

	// A second server binds its own port.
	srv2, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if srv2.Addr() == srv.Addr() {
		t.Error("second debug server reused the address")
	}
}

func TestRunTimerGauges(t *testing.T) {
	reg := NewRegistry()
	timer := StartRunTimer(reg)
	reg.Counter(NameDriveRefs).Add(1000)
	reg.TimingCounter(NameSweepBusyNs).Add(uint64(2 * time.Millisecond))
	time.Sleep(5 * time.Millisecond)
	if d := timer.Stop(); d <= 0 {
		t.Fatalf("Stop returned %v", d)
	}
	wall := reg.Gauge(NameRunWallSeconds).Value()
	if wall <= 0 {
		t.Fatalf("wall seconds gauge = %v", wall)
	}
	rate := reg.Gauge(NameRunRefsPerSec).Value()
	if rate <= 0 || rate > 1000/wall*1.01 {
		t.Errorf("refs/s gauge = %v (wall %v)", rate, wall)
	}
	if util := reg.Gauge(NameRunUtilization).Value(); util <= 0 || util > 1 {
		t.Errorf("utilization gauge = %v", util)
	}
	_ = fmt.Sprintf("%s", reg.Report()) // String smoke
}
