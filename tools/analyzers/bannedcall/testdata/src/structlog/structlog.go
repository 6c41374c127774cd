// Package structlog is the fixture for the structlog analyzer: direct
// fmt.Print*/log.Print* output in a library package is diagnosed;
// injected slog loggers and Fprint-to-injected-writer stay clean.
package structlog

import (
	"fmt"
	"io"
	"log"
	"log/slog"
)

func bad(name string) {
	fmt.Println("starting", name)            // want `fmt\.Println in library package; use an injected \*slog\.Logger \(or fmt\.Fprintln to an injected io\.Writer\)`
	fmt.Printf("starting %s\n", name)        // want `fmt\.Printf in library package; use an injected \*slog\.Logger \(or fmt\.Fprintf to an injected io\.Writer\)`
	log.Printf("collection failed: %v", nil) // want `log\.Printf in library package; use an injected \*slog\.Logger`
	log.Println("sweep done")                // want `log\.Println in library package; use an injected \*slog\.Logger`
}

func fatal(err error) {
	log.Fatalf("unrecoverable: %v", err) // want `log\.Fatalf in library package; use an injected \*slog\.Logger and an error return`
	log.Panicln("unreachable")           // want `log\.Panicln in library package; use an injected \*slog\.Logger and an error return`
}

// good logs through an injected logger and writes human output to an
// injected writer — both are the caller's choice, so both are legal.
func good(l *slog.Logger, w io.Writer, name string) error {
	l.Info("starting", "name", name)
	fmt.Fprintf(w, "starting %s\n", name)
	fmt.Fprintln(w, "done")
	if name == "" {
		return fmt.Errorf("structlog: empty name")
	}
	return nil
}

// formatting helpers are not output calls.
func format(name string) string {
	return fmt.Sprintf("node %s", name)
}
