/**
 * @file
 * Configuration of the ReRAM-based accelerator, mirroring Table II of
 * the paper. All power values are in mW, areas in mm^2, latencies in
 * ns, sizes in bytes. Defaults reproduce the published specification:
 * 65536 tiles x 8 PEs x 32 crossbars of 64x64 cells (2 bits per cell),
 * read 29.31 ns / write 50.88 ns, 16 GB of crossbar capacity.
 */

#ifndef GOPIM_RERAM_CONFIG_HH
#define GOPIM_RERAM_CONFIG_HH

#include <cstdint>

namespace gopim::reram {

/** Crossbar geometry and cell parameters. */
struct CrossbarConfig
{
    uint32_t rows = 64;
    uint32_t cols = 64;
    uint32_t bitsPerCell = 2;
    /** Stored value precision; 16-bit values span multiple cells. */
    uint32_t valueBits = 16;
    double readLatencyNs = 29.31;
    double writeLatencyNs = 50.88;
    double powerMw = 6.2;
    double areaMm2 = 0.00051;

    /** Cells in one crossbar. */
    uint64_t cells() const
    {
        return static_cast<uint64_t>(rows) * cols;
    }

    /**
     * Cell slices per stored value. The paper's Table VI crossbar
     * counts imply 2 slices per 16-bit value (see DESIGN.md §2).
     */
    uint32_t slicesPerValue() const { return 2; }

    bool operator==(const CrossbarConfig &) const = default;
};

/** Per-PE peripheral circuit parameters (Table II, PE properties). */
struct PeConfig
{
    uint32_t crossbarsPerPe = 32;

    // ADC: 8-bit, 32 per PE.
    double adcPowerMw = 64.0;
    double adcAreaMm2 = 0.0384;
    uint32_t adcCount = 32;
    uint32_t adcResolutionBits = 8;

    // DAC: 2-bit, one per crossbar row (32 x 64).
    double dacPowerMw = 0.5;
    double dacAreaMm2 = 0.00034;
    uint32_t dacCount = 32 * 64;
    uint32_t dacResolutionBits = 2;

    // Sample-and-hold, one per crossbar row.
    double shPowerMw = 0.02;
    double shAreaMm2 = 0.00008;
    uint32_t shCount = 32 * 64;

    // Input/output registers.
    double irPowerMw = 2.32;
    double irAreaMm2 = 0.0038;
    uint32_t irBytes = 4096;
    double orPowerMw = 0.42;
    double orAreaMm2 = 0.0014;
    uint32_t orBytes = 512;

    // Shift-and-add units.
    double saPowerMw = 0.8;
    double saAreaMm2 = 0.00096;
    uint32_t saCount = 16;

    bool operator==(const PeConfig &) const = default;
};

/** Per-tile parameters (Table II, tile properties). */
struct TileConfig
{
    uint32_t pesPerTile = 8;
    double inputBufferPowerMw = 7.95;
    double inputBufferAreaMm2 = 0.034;
    uint32_t inputBufferBytes = 32 * 1024;
    double crossbarBufferPowerMw = 59.42;
    double crossbarBufferAreaMm2 = 0.208;
    uint32_t crossbarBufferBytes = 256 * 1024;
    double outputBufferPowerMw = 1.28;
    double outputBufferAreaMm2 = 0.0041;
    uint32_t outputBufferBytes = 4 * 1024;
    double nfuPowerMw = 2.04;
    double nfuAreaMm2 = 0.0024;
    uint32_t nfuCount = 8;
    double pfuPowerMw = 3.2;
    double pfuAreaMm2 = 0.00192;
    uint32_t pfuCount = 8;

    bool operator==(const TileConfig &) const = default;
};

/** Chip-level parameters (Table II, chip properties). */
struct ChipConfig
{
    uint32_t tilesPerChip = 65536;
    double weightComputerPowerMw = 99.6;
    double weightComputerAreaMm2 = 3.21;
    double activationPowerMw = 0.0266;
    double activationAreaMm2 = 0.0030;
    double controllerPowerMw = 580.41;
    double controllerAreaMm2 = 2.65;
    uint32_t globalBufferKb = 128;
    /** ReRAM write endurance (writes per cell over the lifetime). */
    double writeEndurance = 1e8;

    bool operator==(const ChipConfig &) const = default;
};

/** Complete accelerator configuration. */
struct AcceleratorConfig
{
    CrossbarConfig crossbar;
    PeConfig pe;
    TileConfig tile;
    ChipConfig chip;

    /**
     * Rows streamed per serial input window: one PE's worth of
     * wordlines (crossbarsPerPe x rows). See DESIGN.md §2.
     */
    uint32_t windowRows() const
    {
        return pe.crossbarsPerPe * crossbar.rows;
    }

    /** Bit-serial input cycles per MVM (input bits / DAC bits). */
    uint32_t inputCycles() const
    {
        return crossbar.valueBits / pe.dacResolutionBits;
    }

    /** Total crossbars on the chip. */
    uint64_t totalCrossbars() const
    {
        return static_cast<uint64_t>(chip.tilesPerChip) *
               tile.pesPerTile * pe.crossbarsPerPe;
    }

    /** Total ReRAM capacity in bytes (cells x bits per cell / 8). */
    uint64_t capacityBytes() const
    {
        return totalCrossbars() * crossbar.cells() *
               crossbar.bitsPerCell / 8;
    }

    /** Validate internal consistency; fatal() on bad configurations. */
    void validate() const;

    /** The paper's published configuration (Table II). */
    static AcceleratorConfig paperDefault();

    bool operator==(const AcceleratorConfig &) const = default;
};

} // namespace gopim::reram

#endif // GOPIM_RERAM_CONFIG_HH
