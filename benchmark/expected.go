package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expectedJSON pins every seed-1 job's simulated outcome, by workload and
// job name. Regenerate it only when a simulated behaviour change is
// intended:
//
//	SWIFTDIR_UPDATE_GOLDEN=1 go test -run TestExpectedSeed1 .
//
//go:embed testdata/expected_seed1.json
var expectedJSON []byte

var expectedSeed1 = func() map[string]map[string]outcome {
	var m map[string]map[string]outcome
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("testdata/expected_seed1.json: %v", err))
	}
	return m
}()
