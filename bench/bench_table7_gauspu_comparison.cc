/**
 * @file
 * Regenerates Table 7: SplaTAM on the RTX 3090 — plain, with the
 * GauSPU plug-in (comparator model), and with the RTGS *algorithm*
 * techniques alone (the paper's point: RTGS reaches GauSPU-class
 * tracking FPS without custom hardware on a desktop GPU).
 */

#include "bench_util.hh"

int
main()
{
    using namespace rtgs;
    using namespace rtgs::bench;

    printBenchHeader("Table 7: comparison with GauSPU "
                     "(SplaTAM-like on RTX 3090 model)");

    data::DatasetSpec spec =
        benchSpec(data::DatasetSpec::replicaLike(benchScale()));
    hw::SystemModel model = benchSystemModel(hw::GpuSpec::rtx3090());

    TablePrinter table({"Method", "ATE (cm)", "PSNR (dB)", "Track FPS",
                        "Overall FPS", "Peak Mem (MB)"});

    // Row 1: plain SplaTAM on the GPU.
    data::SyntheticDataset ds1(spec);
    core::RtgsSlamConfig base_cfg =
        benchConfig(slam::BaseAlgorithm::SplaTam);
    base_cfg.enablePruning = false;
    base_cfg.enableDownsampling = false;
    RunOutcome base = runSequence(ds1, base_cfg);
    auto base_rep = model.sequenceReport(base.traces,
                                         hw::SystemKind::GpuBaseline);
    table.addRow({"SplaTAM", TablePrinter::num(base.ateRmse * 100),
                  TablePrinter::num(base.psnrDb, 1),
                  TablePrinter::num(base_rep.trackingFps(), 1),
                  TablePrinter::num(base_rep.fps(), 1),
                  TablePrinter::num(runtimeMemoryMb(base.peakBytes), 2)});

    // Row 2: GauSPU plug-in on the same (unpruned) workload. Its ATE
    // is not measured; its memory is the unpruned peak scaled by
    // GauSPU's paper-reported saving.
    auto gauspu_rep = model.sequenceReport(base.traces,
                                           hw::SystemKind::GauSpu);
    table.addRow({"GauSPU+SplaTAM", "n/m",
                  TablePrinter::num(base.psnrDb, 1),
                  TablePrinter::num(gauspu_rep.trackingFps(), 1),
                  TablePrinter::num(gauspu_rep.fps(), 1),
                  TablePrinter::num(runtimeMemoryMb(base.peakBytes) * 0.6,
                                    2) +
                      " (paper)"});

    // Row 3: RTGS algorithm techniques only, still on the plain GPU.
    data::SyntheticDataset ds2(spec);
    core::RtgsSlamConfig ours_cfg =
        benchConfig(slam::BaseAlgorithm::SplaTam);
    RunOutcome ours = runSequence(ds2, ours_cfg);
    auto ours_rep = model.sequenceReport(ours.traces,
                                         hw::SystemKind::GpuBaseline);
    table.addRow({"Ours+SplaTAM", TablePrinter::num(ours.ateRmse * 100),
                  TablePrinter::num(ours.psnrDb, 1),
                  TablePrinter::num(ours_rep.trackingFps(), 1),
                  TablePrinter::num(ours_rep.fps(), 1),
                  TablePrinter::num(runtimeMemoryMb(ours.peakBytes), 2)});
    table.print();
    std::printf("n/m = not measured. GauSPU+SplaTAM Peak Mem is the "
                "SplaTAM peak x0.6, GauSPU's paper-reported saving.\n");

    std::printf("\nShape check vs paper Table 7: Ours+SplaTAM beats "
                "GauSPU+SplaTAM in tracking FPS\npurely algorithmically "
                "(22.6 vs 14.6 in the paper) with lower peak memory.\n");
    return 0;
}
