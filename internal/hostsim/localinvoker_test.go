package hostsim

import (
	"strings"
	"testing"

	"repro/internal/simclock"
)

func TestLocalInvoker(t *testing.T) {
	clk := simclock.NewManual(t0)
	cluster := NewCluster()
	cluster.Add(NewHost(Config{Name: "exergy.sdsu.edu", Cores: 1, TotalMemB: 2 << 30}, t0))
	inv := LocalInvoker{Cluster: cluster, Clock: clk}

	resp, err := inv.Invoke("http://exergy.sdsu.edu:8080/NodeStatus/NodeStatusService")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Host != "exergy.sdsu.edu" || resp.MemoryB != 2<<30 {
		t.Fatalf("resp = %+v", resp)
	}
	if _, err := inv.Invoke("http://unknown.sdsu.edu/x"); err == nil {
		t.Fatal("unknown host accepted")
	}
	if _, err := inv.Invoke("::garbage::"); err == nil || !strings.Contains(err.Error(), "unparseable") {
		t.Fatalf("garbage uri: %v", err)
	}
}
