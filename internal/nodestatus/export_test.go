package nodestatus

// DefaultClient exposes the shared sweep client to the external tests.
var DefaultClient = defaultClient
