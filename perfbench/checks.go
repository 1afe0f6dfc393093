package main

import (
	"fmt"
	"strconv"
	"strings"
)

// The output checks compare a workload's outputs against a second,
// independent execution (replay and compare) or test properties the
// paper's evaluation must show. None compares against a stored copy.

// sameOutputs reports the first experiment whose two outputs differ,
// e.g. a block-engine run against its scalar replay.
func sameOutputs(what string, ids []string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d outputs against %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: %s output differs at byte %d", what, ids[i], firstDiff(got[i], want[i]))
		}
	}
	return nil
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// dataRows returns the lines of a formatted table after its header
// line (the first line starting with headerPrefix), stopping at the
// first blank line or the next section title.
func dataRows(out, headerPrefix string) (header string, rows []string, err error) {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, headerPrefix) {
			continue
		}
		for _, r := range lines[i+1:] {
			if strings.TrimSpace(r) == "" || strings.HasSuffix(r, ":") || strings.Contains(r, ": ") {
				break
			}
			rows = append(rows, r)
		}
		if len(rows) == 0 {
			return "", nil, fmt.Errorf("table %q has no rows", headerPrefix)
		}
		return l, rows, nil
	}
	return "", nil, fmt.Errorf("table header %q not found", headerPrefix)
}

// column returns the first whitespace-delimited token of row that
// overlaps the header label's character span, which finds both left-
// and right-aligned values.
func column(header, row, label string) string {
	at := strings.Index(header, label)
	if at < 0 {
		return ""
	}
	end := at + len(label)
	for i := 0; i < len(row); {
		if row[i] == ' ' {
			i++
			continue
		}
		j := i
		for j < len(row) && row[j] != ' ' {
			j++
		}
		if i < end && j > at {
			return row[i:j]
		}
		i = j
	}
	return ""
}

// checkTable2 requires every Table 2 attack to be detected and
// recovered.
func checkTable2(out string) error {
	header, rows, err := dataRows(out, "attack ")
	if err != nil {
		return fmt.Errorf("table2: %w", err)
	}
	for _, r := range rows {
		if column(header, r, "detected") != "true" || column(header, r, "recovered") != "true" {
			return fmt.Errorf("table2: attack not detected and recovered: %q", r)
		}
	}
	return nil
}

// checkTable3 requires indra-delta to have strictly the lowest backup
// cycles per request of every scheme in Table 3.
func checkTable3(out string) error {
	_, rows, err := dataRows(out, "scheme ")
	if err != nil {
		return fmt.Errorf("table3: %w", err)
	}
	best, bestCyc, tie := "", int64(-1), false
	for _, r := range rows {
		f := strings.Fields(r)
		if len(f) < 2 {
			return fmt.Errorf("table3: short row %q", r)
		}
		cyc, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return fmt.Errorf("table3: row %q: %w", r, err)
		}
		switch {
		case bestCyc < 0 || cyc < bestCyc:
			best, bestCyc, tie = f[0], cyc, false
		case cyc == bestCyc:
			tie = true
		}
	}
	if best != "indra-delta" || tie {
		return fmt.Errorf("table3: lowest backup cycles/request is %s (%d), not indra-delta alone", best, bestCyc)
	}
	return nil
}

// checkDeviceSweep requires every DeviceSweep row of the fault sweep
// to end in "detected".
func checkDeviceSweep(out string) error {
	at := strings.Index(out, "DeviceSweep:")
	if at < 0 {
		return fmt.Errorf("faultsweep: no DeviceSweep section")
	}
	_, rows, err := dataRows(out[at:], "scenario ")
	if err != nil {
		return fmt.Errorf("faultsweep: %w", err)
	}
	for _, r := range rows {
		f := strings.Fields(r)
		if len(f) == 0 || f[len(f)-1] != "detected" {
			return fmt.Errorf("faultsweep: device attack not detected: %q", r)
		}
	}
	return nil
}

// fleetRow is the part of one fleet table row the checks read.
type fleetRow struct {
	campaign, policy string
	avail            float64
	reinf, lost      int
}

func parseFleet(out string) ([]fleetRow, error) {
	header, rows, err := dataRows(out, "campaign ")
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	var res []fleetRow
	for _, r := range rows {
		f := strings.Fields(r)
		if len(f) < 7 {
			return nil, fmt.Errorf("fleet: short row %q", r)
		}
		row := fleetRow{campaign: f[0], policy: f[1]}
		var e1, e2, e3 error
		row.avail, e1 = strconv.ParseFloat(column(header, r, "avail%"), 64)
		row.reinf, e2 = strconv.Atoi(column(header, r, "reinf-rd"))
		row.lost, e3 = strconv.Atoi(column(header, r, "lost"))
		if e1 != nil || e2 != nil || e3 != nil {
			return nil, fmt.Errorf("fleet: unreadable row %q", r)
		}
		res = append(res, row)
	}
	return res, nil
}

// checkFleet requires Served <= Logical on every row (availability at
// most 100% and no negative loss), fewer re-infected rounds under
// rejuvenation than under reactive rollback against the worm, and
// full service under TMR against the resurrector DoS.
func checkFleet(out string) error {
	rows, err := parseFleet(out)
	if err != nil {
		return err
	}
	find := func(campaign, policy string) (fleetRow, error) {
		for _, r := range rows {
			if r.campaign == campaign && r.policy == policy {
				return r, nil
			}
		}
		return fleetRow{}, fmt.Errorf("fleet: no %s/%s row", campaign, policy)
	}
	for _, r := range rows {
		if r.avail > 100 || r.avail < 0 || r.lost < 0 {
			return fmt.Errorf("fleet: %s/%s serves more than it was asked (avail %.2f%%, lost %d)", r.campaign, r.policy, r.avail, r.lost)
		}
	}
	reactive, err := find("worm", "reactive")
	if err != nil {
		return err
	}
	rejuv, err := find("worm", "rejuvenation")
	if err != nil {
		return err
	}
	if rejuv.reinf >= reactive.reinf {
		return fmt.Errorf("fleet: worm re-infected rounds: rejuvenation %d not below reactive %d", rejuv.reinf, reactive.reinf)
	}
	tmr, err := find("dos-resurrector", "tmr")
	if err != nil {
		return err
	}
	if tmr.avail != 100 {
		return fmt.Errorf("fleet: TMR under resurrector DoS serves %.2f%%, not 100%%", tmr.avail)
	}
	return nil
}

// warmTotals sums the fleet table's "warm h/m" column.
func warmTotals(out string) (hits, misses int, err error) {
	header, rows, err := dataRows(out, "campaign ")
	if err != nil {
		return 0, 0, fmt.Errorf("fleet: %w", err)
	}
	for _, r := range rows {
		h, m, ok := strings.Cut(column(header, r, "warm h/m"), "/")
		hv, e1 := strconv.Atoi(h)
		mv, e2 := strconv.Atoi(m)
		if !ok || e1 != nil || e2 != nil {
			return 0, 0, fmt.Errorf("fleet: unreadable warm column in %q", r)
		}
		hits, misses = hits+hv, misses+mv
	}
	return hits, misses, nil
}
