package main

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/nodestatus"
	"repro/internal/rim"
)

// This file is the seeded input generator and the naive oracle. The
// servers only ever receive what is generated here; the oracle computes
// the answer the thesis's filter must give from the generator's own
// parameters, without going through the repo's constraint parser or
// balancer.

// servicePort appears in service access URIs. Nothing ever connects to
// them (only the host part keys the NodeState table), so it is fixed and
// the population bytes depend on the seed and the NodeStatus port alone.
const servicePort = 8080

// hostSample is the static NodeStatus measurement of one host.
type hostSample struct {
	load    float64
	memoryB int64
	swapB   int64
}

// cluster is the generated set of deployment hosts. Heterogeneity follows
// ISSUE.md: load 0.25·(i mod 8), memory (1 + i mod 4) GB + 512 MB, swap
// 1 GB, rotated by the seed so that different seeds put the values on
// different hosts. The two rotations differ by a fixed amount: how many
// hosts satisfy a constraint of the family, and with it the size of every
// answer, is then the same for every seed, and the strictest constraint
// (load ls 0.5, memory gr 3GB) is satisfied by one host in eight, not none.
type cluster struct {
	hosts   []string // 127.0.<1+i/250>.<1+i%250>
	samples []hostSample
	byHost  map[string]int
}

func hostAddr(i int) string {
	return fmt.Sprintf("127.0.%d.%d", 1+i/250, 1+i%250)
}

func newCluster(rng *rand.Rand, n int) *cluster {
	rotLoad := rng.Intn(8)
	rotMem := (rotLoad + 3) % 4
	c := &cluster{byHost: make(map[string]int, n)}
	for i := 0; i < n; i++ {
		h := hostAddr(i)
		c.hosts = append(c.hosts, h)
		c.byHost[h] = i
		c.samples = append(c.samples, hostSample{
			load:    0.25 * float64((i+rotLoad)%8),
			memoryB: int64(1+(i+rotMem)%4)<<30 + 512<<20,
			swapB:   1 << 30,
		})
	}
	return c
}

// response renders host i's NodeStatus answer.
func (c *cluster) response(i int) nodestatus.Response {
	s := c.samples[i]
	return nodestatus.Response{Host: c.hosts[i], Load: s.load, MemoryB: s.memoryB, SwapB: s.swapB}
}

// constraintSpec is one member of the seeded constraint family:
// load ls {0.5,1.0,1.5,2.0} × memory gr {1,2,3}GB × optional
// swapmemory gr 512MB; none means the description carries no block.
type constraintSpec struct {
	none   bool
	loadLs float64
	memGr  int // GB
	swap   bool
}

var (
	familyLoads = []float64{0.5, 1.0, 1.5, 2.0}
	familyMems  = []int{1, 2, 3}
)

// constraintFamily enumerates every member, the unconstrained one first.
func constraintFamily() []constraintSpec {
	out := []constraintSpec{{none: true}}
	for _, l := range familyLoads {
		for _, m := range familyMems {
			for _, s := range []bool{false, true} {
				out = append(out, constraintSpec{loadLs: l, memGr: m, swap: s})
			}
		}
	}
	return out
}

// drawConstraint picks a member: 10 % carry no constraint.
func drawConstraint(rng *rand.Rand) constraintSpec {
	if rng.Intn(10) == 0 {
		return constraintSpec{none: true}
	}
	return constraintSpec{
		loadLs: familyLoads[rng.Intn(len(familyLoads))],
		memGr:  familyMems[rng.Intn(len(familyMems))],
		swap:   rng.Intn(2) == 0,
	}
}

// description renders the service description the registry stores.
func (c constraintSpec) description(name string) string {
	if c.none {
		return "benchmark service " + name
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "benchmark service %s <constraint><cpuLoad>load ls %.1f</cpuLoad><memory>memory gr %dGB</memory>", name, c.loadLs, c.memGr)
	if c.swap {
		sb.WriteString("<swapmemory>swapmemory gr 512MB</swapmemory>")
	}
	sb.WriteString("</constraint>")
	return sb.String()
}

// admits is the naive oracle for one host: every clause must hold.
func (c constraintSpec) admits(s hostSample) bool {
	if c.none {
		return true
	}
	if !(s.load < c.loadLs) {
		return false
	}
	if !(s.memoryB > int64(c.memGr)<<30) {
		return false
	}
	if c.swap && !(s.swapB > 512<<20) {
		return false
	}
	return true
}

// service is one generated Web Service and its current constraint.
type service struct {
	name  string
	spec  constraintSpec
	hosts []int // indexes into the cluster, in stored binding order
	obj   *rim.Service
}

// population is everything a workload publishes before it measures.
type population struct {
	cluster    *cluster
	nodeStatus *rim.Service
	services   []*service
	rng        *rand.Rand // continues after generation, for services published later
}

// seededID draws a urn:uuid: id from rng so the same seed publishes the
// same bytes.
func seededID(rng *rand.Rand) string {
	var b [16]byte
	rng.Read(b[:])
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	h := hex.EncodeToString(b[:])
	return "urn:uuid:" + h[0:8] + "-" + h[8:12] + "-" + h[12:16] + "-" + h[16:20] + "-" + h[20:32]
}

// newService builds a rim.Service whose ids all come from rng.
func newService(rng *rand.Rand, name, description string, uris []string) *rim.Service {
	svc := rim.NewService(name, description)
	svc.ID = seededID(rng)
	svc.LID = svc.ID
	for _, u := range uris {
		b := rim.NewServiceBinding(svc.ID, u)
		b.ID = seededID(rng)
		b.LID = b.ID
		svc.Bindings = append(svc.Bindings, b)
	}
	return svc
}

func serviceURI(host, name string) string {
	return fmt.Sprintf("http://%s:%d/%s/run", host, servicePort, name)
}

// generate builds the population of a workload: the NodeStatus service
// bound to statusHosts hosts, and nServices services each bound to the
// first hostsPer hosts starting at a seeded rotation.
func generate(seed int64, nServices, hostsPer, statusHosts, nsPort int) *population {
	rng := rand.New(rand.NewSource(seed))
	if statusHosts < hostsPer {
		statusHosts = hostsPer
	}
	p := &population{cluster: newCluster(rng, statusHosts), rng: rng}
	nsURIs := make([]string, statusHosts)
	for i, h := range p.cluster.hosts {
		nsURIs[i] = fmt.Sprintf("http://%s:%d/NodeStatus/NodeStatusService", h, nsPort)
	}
	p.nodeStatus = newService(rng, nodestatus.ServiceName, "Service to monitor node status", nsURIs)
	for i := 0; i < nServices; i++ {
		p.services = append(p.services, p.newService(fmt.Sprintf("svc-%05d", i), hostsPer))
	}
	return p
}

// newService draws one more service from the population's generator.
func (p *population) newService(name string, hostsPer int) *service {
	s := &service{name: name, spec: drawConstraint(p.rng)}
	// Services share the first hostsPer hosts, so NodeStatus rows exist for
	// every binding; the stored order is rotated per service so the filter
	// must preserve an order that differs between services.
	rot := p.rng.Intn(hostsPer)
	uris := make([]string, hostsPer)
	for j := 0; j < hostsPer; j++ {
		h := (j + rot) % hostsPer
		s.hosts = append(s.hosts, h)
		uris[j] = serviceURI(p.cluster.hosts[h], name)
	}
	s.obj = newService(p.rng, name, s.spec.description(name), uris)
	return s
}

// expected is the oracle's answer for s under spec: the stored-order URIs
// of the hosts that satisfy every clause (all of them when unconstrained).
func (p *population) expected(s *service, spec constraintSpec) []string {
	out := make([]string, 0, len(s.hosts))
	for _, h := range s.hosts {
		if spec.admits(p.cluster.samples[h]) {
			out = append(out, serviceURI(p.cluster.hosts[h], s.name))
		}
	}
	return out
}

// request is one entry of a seeded discovery sequence.
type request struct {
	service int
	soap    bool
}

// sequence draws n requests uniformly over nServices services, SOAP with
// probability soapShare. It has its own generator so that the sequence
// does not depend on how many services were published after set-up.
func sequence(seed int64, n, nServices int, soapShare float64) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5e9e5ce))
	out := make([]request, n)
	for i := range out {
		out[i] = request{service: rng.Intn(nServices), soap: rng.Float64() < soapShare}
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
