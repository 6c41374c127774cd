// Package clienttimeout is the flagged-code fixture for the clienttimeout
// analyzer: every http.Client literal without an explicit Timeout must be
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
