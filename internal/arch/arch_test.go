package arch

import (
	"testing"

	"einsteinbarrier/internal/device"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.TilesPerNode = 0 },
		func(c *Config) { c.VCoresPerECore = 0 },
		func(c *Config) { c.CrossbarRows = 255 }, // odd
		func(c *Config) { c.ColumnsPerADC = 1024 },
		func(c *Config) { c.WDMCapacity = 0 },
		func(c *Config) { c.InputBits = 0 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestDesignStringsAndTech(t *testing.T) {
	if BaselineEPCM.String() != "Baseline-ePCM" ||
		TacitEPCM.String() != "TacitMap-ePCM" ||
		EinsteinBarrier.String() != "EinsteinBarrier" {
		t.Fatal("design names wrong")
	}
	if BaselineEPCM.Tech() != device.EPCM || TacitEPCM.Tech() != device.EPCM {
		t.Fatal("electronic designs must be ePCM")
	}
	if EinsteinBarrier.Tech() != device.OPCM {
		t.Fatal("EinsteinBarrier must be oPCM")
	}
	if Design(9).String() == "" {
		t.Fatal("unknown design should print")
	}
}

func TestHierarchyCounts(t *testing.T) {
	c := DefaultConfig()
	if c.totalTiles() != 64 {
		t.Fatalf("TotalTiles = %d", c.totalTiles())
	}
	if c.totalECores() != 512 {
		t.Fatalf("TotalECores = %d", c.totalECores())
	}
	if c.TotalVCores() != 4096 {
		t.Fatalf("TotalVCores = %d", c.TotalVCores())
	}
	if c.CellsPerVCore() != 65536 {
		t.Fatalf("CellsPerVCore = %d", c.CellsPerVCore())
	}
	if c.MeshWidth() != 4 {
		t.Fatalf("MeshWidth = %d", c.MeshWidth())
	}
}

func TestEffectiveK(t *testing.T) {
	c := DefaultConfig()
	if c.EffectiveK(BaselineEPCM) != 1 || c.EffectiveK(TacitEPCM) != 1 {
		t.Fatal("electronic designs have no WDM dimension")
	}
	if c.EffectiveK(EinsteinBarrier) != c.WDMCapacity {
		t.Fatal("EinsteinBarrier must see full K")
	}
}
