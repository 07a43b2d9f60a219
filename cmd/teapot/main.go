// Teapot is the repository's one command: `teapot <subcommand>` compiles,
// vets, model-checks, simulates, fuzzes and litmus-tests a protocol, diffs
// run manifests and regenerates the paper's tables. The subcommands, their
// flags and the exit-status contract are package internal/cli.
package main

import (
	"os"

	"teapot/internal/cli"
)

func main() {
	os.Exit(cli.Main(os.Args[1:], os.Stdout, os.Stderr))
}
