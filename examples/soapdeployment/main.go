// Full networked deployment: everything over real HTTP sockets, nothing
// in-process — the closest analog to the thesis's volta.sdsu.edu testbed.
//
//  1. Start the registry server (SOAP + HTTP-GET bindings) on a loopback
//     port with the load-balancing policy enabled.
//  2. Start a NodeStatus HTTP daemon for each simulated host (Fig. 3.7).
//  3. Register a user over SOAP (wizard + challenge/response login).
//  4. Publish the NodeStatus service and a constrained worker service
//     through the AccessRegistry XML API.
//  5. Let the collector sweep the NodeStatus endpoints over HTTP.
//  6. Discover the worker over SOAP and watch the URI order react to
//     load injected on one host.
//
// Run with: go run ./examples/soapdeployment
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/accessregistry"
	"repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/jaxr"
	"repro/internal/nodestate"
	"repro/internal/nodestatus"
	"repro/internal/registry"
	"repro/internal/rim"
	"repro/internal/simclock"
)

func main() {
	clk := simclock.Real{}

	// --- 1. Registry server over HTTP -------------------------------
	reg, err := registry.New(registry.Config{Policy: core.PolicyLeastLoaded, FallbackAll: true})
	if err != nil {
		log.Fatal(err)
	}
	regURL := serve(reg.Handler(), "127.0.0.1")
	fmt.Println("registry listening at", regURL)

	// --- 2. NodeStatus daemons for two simulated hosts ---------------
	// Each daemon binds a distinct loopback IP so the NodeState table —
	// which is keyed by hostname exactly as in Fig. 3.2 — keeps one row
	// per "machine".
	hostA := hostsim.NewHost(hostsim.Config{Name: "thermo.sdsu.edu", Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 1 << 30}, clk.Now())
	hostB := hostsim.NewHost(hostsim.Config{Name: "exergy.sdsu.edu", Cores: 2, TotalMemB: 4 << 30, TotalSwapB: 1 << 30}, clk.Now())
	nsA := serve(nodestatus.NewHandler(hostA, clk), "127.0.0.2") + "/NodeStatus/NodeStatusService"
	nsB := serve(nodestatus.NewHandler(hostB, clk), "127.0.0.3") + "/NodeStatus/NodeStatusService"
	fmt.Println("NodeStatus daemons at", nsA, "and", nsB)

	// --- 3. Register + login over SOAP --------------------------------
	conn := jaxr.Connect(regURL, nil)
	creds, _, err := conn.Register("gold", "gold123", rim.PersonName{FirstName: "Demo"})
	if err != nil {
		log.Fatal(err)
	}
	if err := conn.Login(creds); err != nil {
		log.Fatal(err)
	}
	fmt.Println("logged in as gold")

	// --- 4. Publish via the AccessRegistry XML API --------------------
	// The worker's URIs reuse the NodeStatus daemons' host:port so that
	// binding hosts resolve to pollable endpoints on loopback.
	actionXML := fmt.Sprintf(`<root><action type="publish"><organization>
	  <name>San Diego State University (SDSU)</name>
	  <service><name>NodeStatus</name>
	    <description>Service to monitor node status</description>
	    <accessuri>%s %s</accessuri></service>
	  <service><name>Worker</name>
	    <description><constraint><cpuLoad>load ls 2.0</cpuLoad></constraint></description>
	    <accessuri>%s %s</accessuri></service>
	</organization></action></root>`,
		nsA, nsB, uriOn(nsA, "/Worker/workerService"), uriOn(nsB, "/Worker/workerService"))
	ar, err := accessregistry.NewFromReaders(nil, strings.NewReader(actionXML),
		accessregistry.WithConnection(conn))
	if err != nil {
		log.Fatal(err)
	}
	res, err := ar.Execute()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("published organization", res.PublishedOrgIDs[0])

	// --- 5. Collector sweep over HTTP ----------------------------------
	collector := nodestate.New(reg.Store.NodeState(), nodestatus.HTTPInvoker{}, clk,
		reg.QM.CollectionTargets, nodestate.WithPeriod(time.Second))
	collector.CollectOnce()
	fmt.Printf("collector populated %d NodeState rows\n", reg.Store.NodeState().Snapshot().Len())

	// --- 6. Discovery reacts to load -----------------------------------
	uris, _, err := conn.ServiceBindings("Worker")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("worker URIs with both hosts idle:")
	for _, u := range uris {
		fmt.Println("  ", u)
	}

	// Overload host A and resample.
	for i := 0; i < 16; i++ {
		hostA.Submit(hostsim.Task{ID: fmt.Sprintf("burn-%d", i), CPUSeconds: 600, MemB: 1 << 20}, clk.Now())
	}
	clk.Sleep(50 * time.Millisecond) // let wall-clock load average react slightly
	hostA.AdvanceTo(clk.Now().Add(2 * time.Minute))
	collector.CollectOnce()

	uris, dec, err := conn.ServiceBindings("Worker")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after overloading %s (eligible=%d, ineligible=%d):\n", hostA.Name(), dec.Eligible, dec.Ineligible)
	for _, u := range uris {
		fmt.Println("  ", u)
	}
}

// serve starts an HTTP server on a random port of the given loopback IP,
// falling back to 127.0.0.1 on systems without extra loopback addresses.
func serve(h http.Handler, ip string) string {
	ln, err := net.Listen("tcp", ip+":0")
	if err != nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
	}
	go http.Serve(ln, h)
	return "http://" + ln.Addr().String()
}

// uriOn swaps the path of a base URI.
func uriOn(base, path string) string {
	if i := strings.Index(base, "/NodeStatus"); i >= 0 {
		return base[:i] + path
	}
	return base + path
}
