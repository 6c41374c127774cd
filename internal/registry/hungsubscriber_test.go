package registry

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/rim"
)

// TestHungSubscriberStallsOnlyItsWriter subscribes a Web Service endpoint
// that accepts connections and never answers. The write whose change
// matches the subscription waits for its delivery to time out and counts
// one failure; a write no subscription matches, made meanwhile on another
// goroutine, is not held up. Both write brackets are covered: the
// manager's own mutex and the write-ahead log's.
func TestHungSubscriberStallsOnlyItsWriter(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
	}{{"in-memory", false}, {"durable", true}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var reg *Registry
			if tc.durable {
				reg = newDurableRegistry(t, t.TempDir())
				t.Cleanup(func() { reg.Durable.Close() })
			} else {
				reg = newRegistry(t)
			}
			var writers sync.WaitGroup
			t.Cleanup(writers.Wait) // after the listener's cleanup frees them
			accepted, notifyURI := hungEndpoint(t)
			id, err := reg.Subscribe("urn:uuid:watcher",
				events.Selector{ObjectType: rim.TypeService, NamePattern: "Watched%"}, notifyURI, "")
			if err != nil {
				t.Fatal(err)
			}

			matched := make(chan error, 1)
			writers.Add(1)
			go func() {
				defer writers.Done()
				svc := rim.NewService("WatchedService", "")
				svc.AddBinding("http://h.example/w")
				matched <- reg.LCM.SubmitObjects(reg.AdminContext(), svc)
			}()
			var deliveryStart time.Time
			select {
			case <-accepted:
				deliveryStart = time.Now()
			case <-time.After(5 * time.Second):
				t.Fatal("the matching write never reached its subscriber")
			}

			unrelated := make(chan error, 1)
			writers.Add(1)
			go func() {
				defer writers.Done()
				unrelated <- reg.LCM.SubmitObjects(reg.AdminContext(), rim.NewOrganization("Unrelated"))
			}()
			select {
			case err := <-unrelated:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(time.Second):
				t.Fatal("an unrelated write is still blocked 1s into a hung delivery")
			}

			select {
			case err := <-matched:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(events.DeliveryTimeout + time.Second):
				t.Fatalf("the matching write is still blocked %v into its delivery", events.DeliveryTimeout+time.Second)
			}
			if waited := time.Since(deliveryStart); waited > events.DeliveryTimeout+time.Second {
				t.Fatalf("the matching write returned %v into its delivery, past the %v timeout", waited, events.DeliveryTimeout)
			}
			if n := reg.Bus.Failures(id); n != 1 {
				t.Fatalf("Bus.Failures = %d, want 1", n)
			}
		})
	}
}

// hungEndpoint listens on loopback, accepts every connection and never
// reads from or writes to it. accepted fires on the first connection. The
// test's cleanup closes the listener and every connection it accepted.
func hungEndpoint(t *testing.T) (accepted <-chan struct{}, uri string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan struct{})
	var (
		mu    sync.Mutex
		conns []net.Conn
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if len(conns) == 0 {
				close(first)
			}
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return first, "http://" + ln.Addr().String() + "/notify"
}
