package main

import (
	"net/http"
	"testing"
)

func TestCheckerRejectsCorruptedOutcome(t *testing.T) {
	good := outcome{Cycles: 1234, Count: 50_000, Hash: "ab12"}
	corrupt := []outcome{
		{Cycles: 1235, Count: 50_000, Hash: "ab12"},
		{Cycles: 1234, Count: 49_999, Hash: "ab12"},
		{Cycles: 1234, Count: 50_000, Hash: "ab13"},
	}

	ck := &checker{first: map[string]outcome{}}
	if err := ck.check("mcf/MESI", good); err != nil {
		t.Fatalf("first outcome rejected: %v", err)
	}
	if err := ck.check("mcf/MESI", good); err != nil {
		t.Errorf("identical repeat rejected: %v", err)
	}
	for _, c := range corrupt {
		if err := ck.check("mcf/MESI", c); err == nil {
			t.Errorf("repeat %+v accepted against first %+v", c, good)
		}
	}

	pinned := map[string]outcome{"mcf/MESI": good}
	for _, c := range corrupt {
		ck := &checker{first: map[string]outcome{}, expected: pinned}
		if err := ck.check("mcf/MESI", c); err == nil {
			t.Errorf("seed-1 outcome %+v accepted against pin %+v", c, good)
		}
	}
	ck = &checker{first: map[string]outcome{}, expected: pinned}
	if err := ck.check("lbm/MESI", good); err == nil {
		t.Error("job without a pin accepted on seed 1")
	}
}

func TestReplyCheckRejectsCorruptedBody(t *testing.T) {
	body := []byte("Figure 9: read-only shared-data sweep\n...")
	ok := reply{status: http.StatusOK, source: "hit", body: body}
	if err := ok.check("hit", body); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	flipped := append([]byte(nil), body...)
	flipped[7] ^= 1
	for name, r := range map[string]reply{
		"corrupted body": {status: http.StatusOK, source: "hit", body: flipped},
		"truncated body": {status: http.StatusOK, source: "hit", body: body[:len(body)-1]},
		"wrong source":   {status: http.StatusOK, source: "miss", body: body},
		"refused":        {status: http.StatusTooManyRequests, source: "", body: []byte(`{"error":"busy"}`)},
	} {
		if err := r.check("hit", body); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCheckBurst(t *testing.T) {
	body := []byte("report")
	leader := reply{status: http.StatusOK, source: "miss", body: body}
	follower := reply{status: http.StatusOK, source: "dedup", body: body}
	if err := checkBurst([2]reply{follower, leader}, 1); err != nil {
		t.Fatalf("good burst rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		pair [2]reply
		runs uint64
	}{
		"two runs":         {[2]reply{leader, follower}, 2},
		"two leaders":      {[2]reply{leader, leader}, 1},
		"no leader":        {[2]reply{follower, follower}, 1},
		"follower differs": {[2]reply{leader, {status: http.StatusOK, source: "dedup", body: []byte("repor")}}, 1},
		"follower failed":  {[2]reply{leader, {status: http.StatusInternalServerError}}, 1},
	} {
		if err := checkBurst(tc.pair, tc.runs); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
