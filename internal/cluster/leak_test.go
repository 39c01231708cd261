package cluster

import (
	"testing"

	"distbayes/internal/leakcheck"
)

// checkGoroutines fails t unless every goroutine started during the test
// has exited once the test body and the cleanups registered after this call
// have run, and no goroutine started by the package itself is still blocked
// after its Close (see leakcheck.Check).
func checkGoroutines(t *testing.T) { leakcheck.Check(t, "distbayes/internal/cluster") }
