package main

import (
	"testing"

	"repro/internal/testutil"
)

const asCLI = "TRANSFORMER_TEST_AS_CLI"

func TestMain(m *testing.M) { testutil.CLIMain(m, asCLI, main) }

// TestGolden holds the walkthrough's stdout to testdata/transformer.golden,
// byte for byte (testutil.Golden): the serial and [2,2,2] losses of every
// step, the simulated time and the traffic. `go test ./examples/transformer
// -update` rewrites the file.
func TestGolden(t *testing.T) { testutil.Golden(t, asCLI, "transformer", false) }
