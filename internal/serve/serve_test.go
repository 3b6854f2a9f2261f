package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer starts a service plus an HTTP front end and returns a
// client pointed at it. The server is shut down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, &Client{Base: ts.URL}
}

// Event builders with explicit Seq — the form replay scripts use.
func offerEv(seq int64, name string, dc int) Event {
	return Event{Seq: seq, Kind: KindOffer, Offer: &OfferReq{Name: name, HomeDC: dc}}
}

func telemEv(seq int64, name string, rps float64) Event {
	return Event{Seq: seq, Kind: KindTelemetry, Telemetry: &TelemetryReq{Name: name, RPS: rps}}
}

func faultEv(seq int64, kind string, pm int) Event {
	return Event{Seq: seq, Kind: KindFault, Fault: &FaultEventReq{Kind: kind, PM: pm}}
}

// smokeScript is a small mixed-workload replay: offers landing across
// several ticks, telemetry updates, one crash and its repair.
func smokeScript() *ReplayScript {
	return &ReplayScript{
		Ticks: 35,
		Steps: []ReplayStep{
			{Tick: 0, Events: []Event{
				offerEv(1, "web-0", 0),
				offerEv(2, "web-1", 1),
				telemEv(3, "web-0", 12),
			}},
			{Tick: 5, Events: []Event{
				offerEv(4, "api-0", 2),
				telemEv(5, "web-1", 30),
			}},
			{Tick: 12, Events: []Event{
				faultEv(6, "crash", 0),
				telemEv(7, "web-0", 45),
			}},
			{Tick: 20, Events: []Event{
				faultEv(8, "repair", 0),
				offerEv(9, "batch-0", 3),
			}},
		},
	}
}

// TestServeSmoke drives the full HTTP surface end to end in virtual
// time: offers are admitted and placed, telemetry lands, a crash is
// survived, the log grows one line per tick, and shutdown drains clean.
func TestServeSmoke(t *testing.T) {
	s, c := newTestServer(t, Config{Seed: 7})

	log, err := c.Replay(smokeScript(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 35 {
		t.Fatalf("expected 35 log lines (one per tick), got %d", len(log))
	}
	for i, ln := range log {
		if !strings.HasPrefix(ln, "t=") {
			t.Fatalf("log line %d malformed: %q", i, ln)
		}
	}

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health status %q, want ok", h.Status)
	}
	if h.Tick != 35 {
		t.Fatalf("health tick %d, want 35", h.Tick)
	}
	if h.Churn.Offered != 4 || h.Churn.Admitted != 4 {
		t.Fatalf("churn offered=%d admitted=%d, want 4/4", h.Churn.Offered, h.Churn.Admitted)
	}
	if h.Faults.Crashes != 1 {
		t.Fatalf("crashes %d, want 1", h.Faults.Crashes)
	}

	// Every offered VM must have reached "placed" by now (rounds at 10,
	// 20, 30 cover all arrivals).
	for _, name := range []string{"web-0", "web-1", "api-0", "batch-0"} {
		vs, ok := h.VMs[name]
		if !ok {
			t.Fatalf("vm %q missing from snapshot", name)
		}
		if vs.Status != StatusPlaced {
			t.Fatalf("vm %q status %q, want placed", name, vs.Status)
		}
		if vs.Host < 0 || vs.DC < 0 {
			t.Fatalf("vm %q placed but host=%d dc=%d", name, vs.Host, vs.DC)
		}
	}

	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); !snap.Draining {
		t.Fatal("snapshot not draining after shutdown")
	}
}

// TestServeValidation exercises the front door's reject paths: garbage
// bodies, unknown fields of the domain, and out-of-range references are
// 400s that never reach the intake queue.
func TestServeValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Seed: 1})

	cases := []struct {
		path string
		body string
	}{
		{"/v1/offers", `{"name":""}`},
		{"/v1/offers", `{"name":"x","home_dc":99}`},
		{"/v1/offers", `{"name":"x","home_dc":0,"class":"nope"}`},
		{"/v1/offers", `{"name":"x","home_dc":0,"rps":-1}`},
		{"/v1/offers", `{"name":"x","home_dc":0,"seq":-4}`},
		{"/v1/offers", `not json at all`},
		{"/v1/telemetry", `{"name":"","rps":1}`},
		{"/v1/telemetry", `{"name":"x","rps":-2}`},
		{"/v1/faults", `{"kind":"meteor"}`},
		{"/v1/faults", `{"kind":"crash","pm":1000}`},
		{"/v1/faults", `{"kind":"outage-start","dc":-1}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(c.Base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: got %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}

	// Nothing above may have been accepted.
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.QueueLen != 0 {
		t.Fatalf("queue holds %d events after pure-garbage traffic", h.QueueLen)
	}

	// Unknown VM lookups are 404, not empty bodies.
	resp, err := http.Get(c.Base + "/v1/placements?name=ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("placements?name=ghost: got %d, want 404", resp.StatusCode)
	}
}

// TestServeWallClockMode checks the wall-clock service: ticks happen on
// their own, POST /v1/tick is refused (409), and shutdown still drains.
func TestServeWallClockMode(t *testing.T) {
	s, c := newTestServer(t, Config{Seed: 3, TickEvery: 2 * time.Millisecond})

	if err := c.Send(offerEv(0, "wall-0", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tick(1); err == nil {
		t.Fatal("POST /v1/tick should be rejected in wall-clock mode")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := c.Health()
		if err != nil {
			t.Fatal(err)
		}
		if vs, ok := h.VMs["wall-0"]; ok && vs.Status == StatusPlaced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("wall-0 never placed under the wall-clock ticker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if st := s.Snapshot(); st.PendingAdmits != 0 {
		t.Fatalf("pending admits %d after drain", st.PendingAdmits)
	}
}

// TestServeDrainingRefusesOffers pins the drain contract: once shutdown
// starts, new offers get 503, while queries keep answering.
func TestServeDrainingRefusesOffers(t *testing.T) {
	_, c := newTestServer(t, Config{Seed: 2})
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	err := c.Send(offerEv(0, "late", 0))
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("offer after shutdown: got %v, want draining rejection", err)
	}
	if _, err := c.Health(); err != nil {
		t.Fatalf("health after shutdown: %v", err)
	}
}
