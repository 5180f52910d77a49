package main

import "testing"

// A stat line whose command holds spaces and a ')': fields must be counted
// from the last parenthesis.
const cannedStat = `4242 (fi bench) w)) S 4200 4242 4200 34816 4242 4194304 15321 0 3 0 1234 567 0 0 20 0 7 0 8675309 1893531648 18233 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0`

const cannedStatus = `Name:	bench
Umask:	0022
State:	S (sleeping)
Pid:	4242
VmPeak:	 1849152 kB
VmSize:	 1849152 kB
VmHWM:	   75674 kB
VmRSS:	   72932 kB
Threads:	7
`

func TestParseStatCPU(t *testing.T) {
	got, err := parseStatCPU([]byte(cannedStat))
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(1234+567) / clockTick; got != want {
		t.Errorf("utime+stime = %v s, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q): no error", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	for key, want := range map[string]int64{"VmHWM": 75674, "VmRSS": 72932} {
		got, err := parseStatusKB([]byte(cannedStatus), key)
		if err != nil || got != want {
			t.Errorf("%s = %d, %v; want %d", key, got, err, want)
		}
	}
	if _, err := parseStatusKB([]byte(cannedStatus), "VmSwap"); err == nil {
		t.Error("missing key: no error")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("wrong unit: no error")
	}
}

// The live readers agree with the parsers on this very process.
func TestReadSelf(t *testing.T) {
	if mb := statusMB("self", "VmHWM"); mb <= 0 {
		t.Errorf("VmHWM of self = %v MB", mb)
	}
	if hwm := treeHWM(nil); hwm <= 0 {
		t.Errorf("treeHWM = %v MB", hwm)
	}
	if cpu := workersCPU([]int{1 << 30}); cpu != 0 {
		t.Errorf("a vanished worker contributed %v s", cpu)
	}
}
