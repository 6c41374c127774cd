// Package clienttimeout is the flagged-code fixture for the clienttimeout
// rows: every http.Client literal without an explicit Timeout, and every
// use of http.DefaultClient or the package helpers that use it, must be
// diagnosed, while clients that state a Timeout (even zero) stay clean.
package clienttimeout

import (
	nh "net/http"
	"time"
)

var bare = nh.Client{} // want `http\.Client literal without an explicit Timeout`

var ptr = &nh.Client{Transport: nil} // want `http\.Client literal without an explicit Timeout`

func bad() *nh.Client {
	c := nh.Client{ // want `http\.Client literal without an explicit Timeout`
		CheckRedirect: nil,
	}
	return &c
}

var withTimeout = &nh.Client{Timeout: 10 * time.Second}

// Explicit zero proves an unbounded client was chosen deliberately.
var deliberatelyUnbounded = nh.Client{Timeout: 0}

// Other composite literals with a Timeout-less shape are not http.Client
// and stay clean.
type dialer struct {
	Timeout time.Duration
	Retries int
}

var notAClient = dialer{Retries: 3}

var shared = nh.DefaultClient // want `http\.DefaultClient has no Timeout`

func helpers() {
	nh.Get("http://x/")                   // want `http\.Get has no Timeout`
	nh.Head("http://x/")                  // want `http\.Head has no Timeout`
	nh.Post("http://x/", "text/xml", nil) // want `http\.Post has no Timeout`
	nh.PostForm("http://x/", nil)         // want `http\.PostForm has no Timeout`
	nh.DefaultClient.Do(nil)              // want `http\.DefaultClient has no Timeout`
}

// The same methods on a client with a stated Timeout are clean, as are
// the package's other helpers.
func bounded() {
	withTimeout.Get("http://x/")
	withTimeout.Post("http://x/", "text/xml", nil)
	req, _ := nh.NewRequest(nh.MethodGet, "http://x/", nil)
	withTimeout.Do(req)
}
