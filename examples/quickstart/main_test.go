package main

import (
	"testing"

	"repro/internal/testutil"
)

const asCLI = "QUICKSTART_TEST_AS_CLI"

func TestMain(m *testing.M) { testutil.CLIMain(m, asCLI, main) }

// TestGolden holds the walkthrough's stdout to testdata/quickstart.golden,
// byte for byte (testutil.Golden): the §4 check's zero difference, the
// simulated time and the traffic. `go test ./examples/quickstart -update`
// rewrites the file.
func TestGolden(t *testing.T) { testutil.Golden(t, asCLI, "quickstart", false) }
