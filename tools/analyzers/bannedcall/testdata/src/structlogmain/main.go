// Command structlogmain is the fixture proving main packages are exempt:
// binaries own the process's stdout/stderr and may print and die freely.
package main

import (
	"fmt"
	"log"
)

func main() {
	fmt.Println("listening on :8080")
	log.Printf("policy %s", "filter")
	log.Fatal("bind failed")
}
