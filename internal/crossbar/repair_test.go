package crossbar

import (
	"testing"

	"einsteinbarrier/internal/device"
)

func faultyArray(t *testing.T, rate float64) *Array {
	t.Helper()
	cfg := smallConfig(device.EPCM, true, 0)
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arr.InjectFaults(FaultModel{StuckOnRate: rate / 2, StuckOffRate: rate / 2, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestPlanRepairBounds(t *testing.T) {
	arr := faultyArray(t, 0.1)
	if _, err := arr.PlanRepair(-1); err == nil {
		t.Fatal("negative usedCols should fail")
	}
	if _, err := arr.PlanRepair(arr.cfg.Cols + 1); err == nil {
		t.Fatal("oversized usedCols should fail")
	}
}

func TestRepairRetiresWorstColumns(t *testing.T) {
	arr := faultyArray(t, 0.15)
	used := arr.cfg.Cols - 8 // 8 spares
	plan, err := arr.PlanRepair(used)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Spares != 8 {
		t.Fatalf("spares = %d", plan.Spares)
	}
	if len(plan.Remapped) == 0 || len(plan.Remapped) > 8 {
		t.Fatalf("remapped %d columns with 8 spares", len(plan.Remapped))
	}
	before, after, err := arr.RepairEffectiveness(used, plan)
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("repair made things worse: %d → %d", before, after)
	}
	if before > 0 && after == before && len(plan.Remapped) == 8 {
		// With the worst columns retired the residual must improve
		// unless all columns were equally bad (vanishingly unlikely at
		// this density and size).
		t.Fatalf("retiring 8 worst columns did not improve worst case (%d)", before)
	}
}

func TestColumnMapSkipsRetired(t *testing.T) {
	arr := faultyArray(t, 0.2)
	used := arr.cfg.Cols - 4
	plan, err := arr.PlanRepair(used)
	if err != nil {
		t.Fatal(err)
	}
	colMap, err := arr.ColumnMap(used, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(colMap) != used {
		t.Fatalf("column map has %d entries, want %d", len(colMap), used)
	}
	retired := make(map[int]bool)
	for _, c := range plan.Remapped {
		retired[c] = true
	}
	seen := make(map[int]bool)
	for _, c := range colMap {
		if retired[c] {
			t.Fatalf("retired column %d still in service", c)
		}
		if seen[c] {
			t.Fatalf("column %d assigned twice", c)
		}
		seen[c] = true
	}
}

func TestColumnMapErrsWhenOverRetired(t *testing.T) {
	arr := faultyArray(t, 0.1)
	plan := RepairPlan{Remapped: []int{0, 1, 2, 3}}
	if _, err := arr.ColumnMap(arr.cfg.Cols, plan); err == nil {
		t.Fatal("expected error: all columns used but 4 retired")
	}
}

func TestRepairNoFaultsNoop(t *testing.T) {
	cfg := smallConfig(device.EPCM, true, 0)
	arr, _ := NewArray(cfg)
	plan, err := arr.PlanRepair(arr.cfg.Cols - 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Remapped) != 0 || plan.ResidualWorst != 0 {
		t.Fatalf("healthy array produced repairs: %+v", plan)
	}
}

func TestPlanRepairResidualWorstWhenSparesRunOut(t *testing.T) {
	arr := faultyArray(t, 0.3)
	// One spare: every defective column but the worst stays in service.
	used := arr.cfg.Cols - 1
	plan, err := arr.PlanRepair(used)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Remapped) != 1 {
		t.Fatalf("remapped %d columns with one spare", len(plan.Remapped))
	}
	if plan.ResidualWorst <= 0 {
		t.Fatalf("dense faults with one spare must leave residual defects: %+v", plan)
	}
	before, after, err := arr.RepairEffectiveness(used, plan)
	if err != nil {
		t.Fatal(err)
	}
	if after != plan.ResidualWorst {
		t.Fatalf("effectiveness after=%d disagrees with plan residual %d", after, plan.ResidualWorst)
	}
	if before < after {
		t.Fatalf("repair made things worse: %d → %d", before, after)
	}
}

func TestPlanRepairZeroUsedCols(t *testing.T) {
	arr := faultyArray(t, 0.2)
	plan, err := arr.PlanRepair(0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Spares != arr.cfg.Cols {
		t.Fatalf("spares = %d, want %d", plan.Spares, arr.cfg.Cols)
	}
	if plan.ResidualWorst != 0 {
		t.Fatalf("with every column spare nothing should remain: %+v", plan)
	}
	colMap, err := arr.ColumnMap(0, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(colMap) != 0 {
		t.Fatalf("empty mapping expected, got %v", colMap)
	}
	if _, after, err := arr.RepairEffectiveness(0, plan); err != nil || after != 0 {
		t.Fatalf("effectiveness on empty mapping: after=%d err=%v", after, err)
	}
}

func TestRepairEffectivenessPropagatesMapError(t *testing.T) {
	arr := faultyArray(t, 0.1)
	bad := RepairPlan{Remapped: []int{0, 1, 2, 3}}
	if _, _, err := arr.RepairEffectiveness(arr.cfg.Cols, bad); err == nil {
		t.Fatal("over-retired plan must error through RepairEffectiveness")
	}
}
