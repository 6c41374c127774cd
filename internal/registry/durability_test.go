package registry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/wal"
)

func newDurableRegistry(t *testing.T, dir string) *Registry {
	t.Helper()
	reg, err := New(Config{
		Clock:   simclock.NewManual(t0),
		DataDir: dir,
		Fsync:   wal.FsyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestRegistryCrashRecovery is the end-to-end acceptance check: a
// registry with -data-dir recovers every acknowledged write after the
// process dies without any shutdown path running, and bootstrap does not
// duplicate the built-in operator account across boots.
func TestRegistryCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	regA := newDurableRegistry(t, dir)
	svc := rim.NewService("CrashSurvivor", "submitted just before the crash")
	if err := regA.LCM.SubmitObjects(regA.AdminContext(), svc); err != nil {
		t.Fatal(err)
	}
	// kill -9: regA is abandoned with no Close, no checkpoint.

	regB := newDurableRegistry(t, dir)
	got, err := regB.Store.Get(svc.ID)
	if err != nil {
		t.Fatalf("acknowledged service lost across crash: %v", err)
	}
	if got.Base().Name.String() != "CrashSurvivor" {
		t.Fatalf("recovered service name = %q", got.Base().Name)
	}
	if admins := regB.Store.FindByName(rim.TypeUser, AdminAlias); len(admins) != 1 {
		t.Fatalf("%d operator accounts after recovery, want exactly 1", len(admins))
	}

	// And a third boot after a graceful close replays from the checkpoint.
	if err := regB.Durable.Close(); err != nil {
		t.Fatal(err)
	}
	regC := newDurableRegistry(t, dir)
	if _, err := regC.Store.Get(svc.ID); err != nil {
		t.Fatalf("service lost across graceful restart: %v", err)
	}
}

// TestBootDoesNotCheckpoint pins the boot rule: only a boot that found no
// checkpoint to load writes one. Every other boot logs its operator swap
// as one WAL record and leaves checkpointing to the thresholds, which count
// the replayed tail — so the tail grows by one record per boot until the
// boot mutation itself crosses a threshold.
func TestBootDoesNotCheckpoint(t *testing.T) {
	boot := func(dir string, records int) (*Registry, *obs.Scrape) {
		t.Helper()
		reg, err := New(Config{Clock: simclock.NewManual(t0), DataDir: dir, Fsync: wal.FsyncAlways, CheckpointRecords: records})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(reg.Handler())
		defer srv.Close()
		return reg, scrapeMetrics(t, srv)
	}
	value := func(sc *obs.Scrape, name string) float64 {
		t.Helper()
		v, ok := sc.Value(name, nil)
		if !ok {
			t.Fatalf("%s missing from the scrape", name)
		}
		return v
	}

	dir := t.TempDir()
	first, sc := boot(dir, 0)
	if got := value(sc, "registry_checkpoints_total"); got != 1 {
		t.Fatalf("first boot of an empty directory wrote %v checkpoints, want 1", got)
	}
	if got := value(sc, "registry_wal_replay_records_total"); got != 0 {
		t.Fatalf("first boot of an empty directory replayed %v records, want 0", got)
	}
	const tail = 5
	for i := 0; i < tail; i++ {
		if err := first.LCM.SubmitObjects(first.AdminContext(), rim.NewService(fmt.Sprintf("svc-%d", i), "")); err != nil {
			t.Fatal(err)
		}
	}
	objects := first.Store.Len()
	schemes := len(first.Store.ByType(rim.TypeClassificationScheme))
	nodes := len(first.Store.ByType(rim.TypeClassificationNode))
	// kill -9: abandoned without Close, here and after every boot below.

	for earlier := 0; earlier < 3; earlier++ {
		reg, sc := boot(dir, 0)
		if got := value(sc, "registry_checkpoints_total"); got != 0 {
			t.Fatalf("reboot %d wrote %v checkpoints, want 0", earlier, got)
		}
		if got, want := value(sc, "registry_wal_replay_records_total"), float64(tail+earlier); got != want {
			t.Fatalf("reboot %d replayed %v records, want the tail of %d plus one per earlier boot = %v", earlier, got, tail, want)
		}
		if got := value(sc, "registry_objects"); got != float64(objects) || reg.Store.Len() != objects {
			t.Fatalf("reboot %d holds %v objects, want %d: the operator swap must be count-neutral", earlier, got, objects)
		}
		admins := reg.Store.FindByName(rim.TypeUser, AdminAlias)
		if len(admins) != 1 || admins[0].Base().ID != reg.AdminContext().UserID {
			t.Fatalf("reboot %d: operator rows = %d, want exactly this boot's", earlier, len(admins))
		}
		if s, n := len(reg.Store.ByType(rim.TypeClassificationScheme)), len(reg.Store.ByType(rim.TypeClassificationNode)); s != schemes || n != nodes {
			t.Fatalf("reboot %d: taxonomy is %d schemes / %d nodes, want %d / %d", earlier, s, n, schemes, nodes)
		}
	}

	// A replayed tail one short of the record threshold: the boot mutation
	// is the record that crosses it, and the checkpoint follows at once.
	dir = t.TempDir()
	first, _ = boot(dir, tail+1)
	for i := 0; i < tail; i++ {
		if err := first.LCM.SubmitObjects(first.AdminContext(), rim.NewService(fmt.Sprintf("svc-%d", i), "")); err != nil {
			t.Fatal(err)
		}
	}
	if _, sc = boot(dir, tail+1); value(sc, "registry_checkpoints_total") != 1 || value(sc, "registry_wal_replay_records_total") != tail {
		t.Fatalf("boot at the threshold: %v checkpoints after replaying %v records, want 1 after %d",
			value(sc, "registry_checkpoints_total"), value(sc, "registry_wal_replay_records_total"), tail)
	}
	if _, sc = boot(dir, tail+1); value(sc, "registry_wal_replay_records_total") != 0 {
		t.Fatalf("boot after the threshold checkpoint replayed %v records, want 0", value(sc, "registry_wal_replay_records_total"))
	}
}

func scrapeMetrics(t *testing.T, srv *httptest.Server) *obs.Scrape {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/registry/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	scrape, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse strictly: %v", err)
	}
	return scrape
}

// TestDurabilityMetricsExposition verifies the wal_*/checkpoint_* families
// parse under the strict exposition parser and reflect WAL activity,
// including the degraded gauge flipping when durability fails.
func TestDurabilityMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	regA := newDurableRegistry(t, dir)
	for i := 0; i < 3; i++ {
		if err := regA.LCM.SubmitObjects(regA.AdminContext(), rim.NewService(fmt.Sprintf("svc-%d", i), "")); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon regA so the next boot has a WAL tail to replay.

	reg := newDurableRegistry(t, dir)
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)

	scrape := scrapeMetrics(t, srv)
	if v, ok := scrape.Value("registry_wal_replay_records_total", nil); !ok || v <= 0 {
		t.Fatalf("registry_wal_replay_records_total = %v, %v; want > 0 after a crash boot", v, ok)
	}
	if v, ok := scrape.Value("registry_wal_segments", nil); !ok || v < 1 {
		t.Fatalf("registry_wal_segments = %v, %v", v, ok)
	}
	if v, ok := scrape.Value("registry_checkpoints_total", nil); !ok || v != 0 {
		t.Fatalf("registry_checkpoints_total = %v, %v; a boot that loaded a checkpoint writes none", v, ok)
	}
	for _, phase := range []string{"load", "replay"} {
		if v, ok := scrape.Value("registry_wal_recovery_seconds", map[string]string{"phase": phase}); !ok || v < 0 {
			t.Fatalf("registry_wal_recovery_seconds{phase=%q} = %v, %v", phase, v, ok)
		}
	}
	if v, ok := scrape.Value("registry_wal_degraded", nil); !ok || v != 0 {
		t.Fatalf("registry_wal_degraded = %v, %v; want healthy 0", v, ok)
	}
	// The bundle says what this boot read: the first boot's checkpoint and
	// the three submits on top of it.
	bresp, err := srv.Client().Get(srv.URL + "/registry/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	var bundle struct {
		WAL struct {
			Recovery wal.RecoveryStats `json:"recovery"`
		} `json:"wal"`
	}
	err = json.NewDecoder(bresp.Body).Decode(&bundle)
	bresp.Body.Close()
	if rec := bundle.WAL.Recovery; err != nil || rec.Checkpoint != 1 || rec.ReplayedRecords != 3 || rec.Frames == 0 || rec.CheckpointBytes == 0 {
		t.Fatalf("bundle wal.recovery = %+v (%v), want checkpoint 1 with its frames and bytes, 3 records replayed", rec, err)
	}
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), rim.NewService("counted", "")); err != nil {
		t.Fatal(err)
	}
	after := scrapeMetrics(t, srv)
	if v, ok := after.Value("registry_wal_appends_total", nil); !ok || v < 1 {
		t.Fatalf("registry_wal_appends_total = %v, %v after a write", v, ok)
	}
	if v, ok := after.Value("registry_wal_fsyncs_total", nil); !ok || v < 1 {
		t.Fatalf("registry_wal_fsyncs_total = %v, %v under fsync=always", v, ok)
	}

	reg.Durable.ForceReadOnly(fmt.Errorf("simulated disk failure"))
	degraded := scrapeMetrics(t, srv)
	if v, ok := degraded.Value("registry_wal_degraded", nil); !ok || v != 1 {
		t.Fatalf("registry_wal_degraded = %v, %v after ForceReadOnly; want 1", v, ok)
	}
	// Discovery/read paths keep serving while writes are refused.
	resp, err := srv.Client().Get(srv.URL + "/registry/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status %d in degraded mode, want 200", resp.StatusCode)
	}
}
