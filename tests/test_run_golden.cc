/**
 * @file
 * Byte-level golden table of the run path. Each entry holds the
 * FNV-64 of one run's runResultToJson bytes and of the ISA bundle the
 * run recorded (which carries the stream label). The runs cover the
 * Fig. 13 systems on ddi and Cora under every engine, fault-free and
 * with stuck-on faults under each repair policy, one estimate-driven
 * allocation, and every workload family under GoPIM and Serial. Any
 * drift in a result field, a lowered stream or its label fails here.
 *
 * On a mismatch the test prints the computed row in table syntax.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "core/accelerator.hh"
#include "core/report.hh"
#include "core/systems.hh"
#include "gcn/workload.hh"
#include "isa/trace_io.hh"
#include "predictor/predictor.hh"
#include "workload/runner.hh"

namespace gopim {
namespace {

struct GoldenRun
{
    const char *name;
    uint64_t json;
    uint64_t isa;
};

std::string
formatRow(const std::string &name, uint64_t json, uint64_t isa)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "{\"%s\", 0x%016llx, 0x%016llx},",
                  name.c_str(), static_cast<unsigned long long>(json),
                  static_cast<unsigned long long>(isa));
    return buf;
}

const sim::EngineKind kEngines[] = {sim::EngineKind::ClosedForm,
                                    sim::EngineKind::EventDriven,
                                    sim::EngineKind::Replay};

/** A system on `engine` with a fresh ISA recorder and write retries. */
core::SystemConfig
recordingSystem(core::SystemKind kind, sim::EngineKind engine)
{
    core::SystemConfig system = core::makeSystem(kind);
    system.sim.engine = engine;
    system.sim.seed = 7;
    system.sim.event.writeRetryProb = 0.05;
    system.sim.isaRecorder = std::make_shared<isa::StreamRecorder>();
    return system;
}

/** Every run of the table, in table order, as formatted rows. */
std::vector<std::string>
computeRows()
{
    const auto hw = reram::AcceleratorConfig::paperDefault();
    std::vector<std::string> rows;
    const auto add = [&](const std::string &name,
                         const core::SystemConfig &system,
                         const core::RunResult &run) {
        rows.push_back(formatRow(
            name, fnv1a64(core::runResultToJson(run).dump()),
            fnv1a64(isa::encodeBundle(system.sim.isaRecorder->bundle()))));
    };

    const fault::RepairKind kRepairs[] = {
        fault::RepairKind::None, fault::RepairKind::SpareRows,
        fault::RepairKind::EccDuplicate, fault::RepairKind::Refresh};
    for (const char *dataset : {"ddi", "Cora"}) {
        const auto workload = gcn::Workload::paperDefault(dataset);
        const auto profile =
            gcn::VertexProfile::build(workload.dataset, workload.seed);
        for (const auto kind : core::figure13Systems())
            for (const auto engine : kEngines)
                for (int f = -1; f < 4; ++f) {
                    core::SystemConfig system =
                        recordingSystem(kind, engine);
                    std::string name = system.name + "/" + dataset +
                                       "/" + sim::toString(engine);
                    if (f >= 0) {
                        system.fault.params.stuckOnRate = 0.01;
                        system.fault.repair = kRepairs[f];
                        name += "/stuck-on+" +
                                fault::toString(kRepairs[f]);
                    }
                    add(name, system,
                        core::Accelerator(hw, system)
                            .run(workload, profile));
                }
    }

    {
        // Estimates off by a fixed +/-10% steer the allocation only.
        const auto workload = gcn::Workload::paperDefault("ddi");
        const auto profile =
            gcn::VertexProfile::build(workload.dataset, workload.seed);
        const gcn::StageTimeModel model(hw);
        auto estimates = predictor::ProfilingPredictor(model)
                             .predictAllStageTimesNs(workload);
        for (size_t i = 0; i < estimates.size(); ++i)
            estimates[i] *= i % 2 ? 1.1 : 0.9;
        const core::SystemConfig system = recordingSystem(
            core::SystemKind::GoPim, sim::EngineKind::EventDriven);
        add("GoPIM/ddi/estimates", system,
            core::Accelerator(hw, system)
                .runWithEstimates(workload, profile, estimates));
    }

    std::vector<workload::WorkloadSpec> specs;
    {
        workload::WorkloadSpec spec;
        spec.dataset = "ddi";
        specs.push_back(spec);
        spec.family = workload::FamilyKind::GnnInfer;
        spec.dataset = "Cora";
        for (const auto &info : workload::partitionRegistry()) {
            spec.partition = info.kind;
            specs.push_back(spec);
        }
        spec = {};
        spec.family = workload::FamilyKind::CnnInfer;
        spec.dataset = "mnist";
        specs.push_back(spec);
    }
    for (const auto &spec : specs)
        for (const auto kind :
             {core::SystemKind::GoPim, core::SystemKind::Serial})
            for (const auto engine : kEngines) {
                const core::SystemConfig system =
                    recordingSystem(kind, engine);
                std::string name = workload::toString(spec.family);
                if (spec.family == workload::FamilyKind::GnnInfer)
                    name += "[" + workload::toString(spec.partition) + "]";
                name += "/" + system.name + "/" + spec.dataset + "/" +
                        sim::toString(engine);
                add(name, system, workload::runFamily(spec, system, hw));
            }
    return rows;
}

// clang-format off
const GoldenRun kRunGolden[] = {
    {"Serial/ddi/closed-form", 0xd5e189be442b68f8, 0x6e8ba4789fb0fe64},
    {"Serial/ddi/closed-form/stuck-on+none", 0x67713fe0211b13ae, 0x4b020b6e40824793},
    {"Serial/ddi/closed-form/stuck-on+spare-rows", 0x22cbed15eb214a85, 0xa5279fe67038d270},
    {"Serial/ddi/closed-form/stuck-on+ecc-dup", 0x8e7f2dfe65f508a1, 0x10fef08ed81f0341},
    {"Serial/ddi/closed-form/stuck-on+refresh", 0xb459bd0f8ebc8487, 0x4928c7bf62220685},
    {"Serial/ddi/event-driven", 0x7a823450053022ab, 0x6e8ba4789fb0fe64},
    {"Serial/ddi/event-driven/stuck-on+none", 0xe003fcb08ab16d74, 0x4b020b6e40824793},
    {"Serial/ddi/event-driven/stuck-on+spare-rows", 0x75f27f805414ebe6, 0xa5279fe67038d270},
    {"Serial/ddi/event-driven/stuck-on+ecc-dup", 0x000523b4137875de, 0x10fef08ed81f0341},
    {"Serial/ddi/event-driven/stuck-on+refresh", 0x85477d601674f875, 0x4928c7bf62220685},
    {"Serial/ddi/replay", 0xc9ec3881a9098879, 0x6e8ba4789fb0fe64},
    {"Serial/ddi/replay/stuck-on+none", 0x4746697594654bae, 0x4b020b6e40824793},
    {"Serial/ddi/replay/stuck-on+spare-rows", 0x912bf8fc9f34fbd8, 0xa5279fe67038d270},
    {"Serial/ddi/replay/stuck-on+ecc-dup", 0x09bdfb358b1cc084, 0x10fef08ed81f0341},
    {"Serial/ddi/replay/stuck-on+refresh", 0x338efd1fbcdfec87, 0x4928c7bf62220685},
    {"SlimGNN-like/ddi/closed-form", 0x930801cdc13802f2, 0xf802f8c81b38dc8a},
    {"SlimGNN-like/ddi/closed-form/stuck-on+none", 0x83f1f02298746914, 0xd3bcabdb7fba7760},
    {"SlimGNN-like/ddi/closed-form/stuck-on+spare-rows", 0x0a20a83127f648bb, 0x7cf6e3520874e105},
    {"SlimGNN-like/ddi/closed-form/stuck-on+ecc-dup", 0x57421c5e27efab6b, 0x9749830c457f1b3f},
    {"SlimGNN-like/ddi/closed-form/stuck-on+refresh", 0x68764b5e6deb3015, 0x9c46532db447bc5d},
    {"SlimGNN-like/ddi/event-driven", 0xeb6945daea5aa3b6, 0xf802f8c81b38dc8a},
    {"SlimGNN-like/ddi/event-driven/stuck-on+none", 0x3bd195273f15b2c6, 0xd3bcabdb7fba7760},
    {"SlimGNN-like/ddi/event-driven/stuck-on+spare-rows", 0x9542e1131d3aea93, 0x7cf6e3520874e105},
    {"SlimGNN-like/ddi/event-driven/stuck-on+ecc-dup", 0x37e0aa27056596ee, 0x9749830c457f1b3f},
    {"SlimGNN-like/ddi/event-driven/stuck-on+refresh", 0xecfe978236b1396f, 0x9c46532db447bc5d},
    {"SlimGNN-like/ddi/replay", 0xc9c3fdcde20d8aa4, 0xf802f8c81b38dc8a},
    {"SlimGNN-like/ddi/replay/stuck-on+none", 0x45c44ea554f9a228, 0xd3bcabdb7fba7760},
    {"SlimGNN-like/ddi/replay/stuck-on+spare-rows", 0x73d9fe8a922f2c89, 0x7cf6e3520874e105},
    {"SlimGNN-like/ddi/replay/stuck-on+ecc-dup", 0x2f7e3c9bb6514b18, 0x9749830c457f1b3f},
    {"SlimGNN-like/ddi/replay/stuck-on+refresh", 0x7f33c9f2283e8889, 0x9c46532db447bc5d},
    {"ReGraphX/ddi/closed-form", 0x0096895db78e4d8e, 0x6a39ca2248fe816f},
    {"ReGraphX/ddi/closed-form/stuck-on+none", 0xcb2833f12cec2b37, 0xca4ac7fef890c764},
    {"ReGraphX/ddi/closed-form/stuck-on+spare-rows", 0x83877133fc594856, 0x50852570187e907c},
    {"ReGraphX/ddi/closed-form/stuck-on+ecc-dup", 0x721a43a99e56104e, 0x80d598222c7903a4},
    {"ReGraphX/ddi/closed-form/stuck-on+refresh", 0x85b3fa270a5ded18, 0x125ed521a4f6bb5e},
    {"ReGraphX/ddi/event-driven", 0x1823960bde1caba9, 0x6a39ca2248fe816f},
    {"ReGraphX/ddi/event-driven/stuck-on+none", 0x72bfea1a3cdbd430, 0xca4ac7fef890c764},
    {"ReGraphX/ddi/event-driven/stuck-on+spare-rows", 0x22d83633dc32c2b4, 0x50852570187e907c},
    {"ReGraphX/ddi/event-driven/stuck-on+ecc-dup", 0xd7ecf8737c19249c, 0x80d598222c7903a4},
    {"ReGraphX/ddi/event-driven/stuck-on+refresh", 0x671a53aecdfb0a41, 0x125ed521a4f6bb5e},
    {"ReGraphX/ddi/replay", 0xa17c5087a1e8570b, 0x6a39ca2248fe816f},
    {"ReGraphX/ddi/replay/stuck-on+none", 0xcf84f06497c45dca, 0xca4ac7fef890c764},
    {"ReGraphX/ddi/replay/stuck-on+spare-rows", 0x4903faf61fc4fe12, 0x50852570187e907c},
    {"ReGraphX/ddi/replay/stuck-on+ecc-dup", 0xbf411545068dc86a, 0x80d598222c7903a4},
    {"ReGraphX/ddi/replay/stuck-on+refresh", 0xc863f76adbbef513, 0x125ed521a4f6bb5e},
    {"ReFlip/ddi/closed-form", 0x471f137e744bfc09, 0x91b28cca6edf4375},
    {"ReFlip/ddi/closed-form/stuck-on+none", 0x22c4f383476c9bf1, 0xac95ff91e64cfae3},
    {"ReFlip/ddi/closed-form/stuck-on+spare-rows", 0x390a58c89ded5df1, 0xe447d5cfa0a20cb6},
    {"ReFlip/ddi/closed-form/stuck-on+ecc-dup", 0x0c1ec5b70c8ec0c0, 0x7e8499dd938720c0},
    {"ReFlip/ddi/closed-form/stuck-on+refresh", 0xfc893139fe638502, 0x510b4e40469ac9f8},
    {"ReFlip/ddi/event-driven", 0x019bc4d8899cec9d, 0x91b28cca6edf4375},
    {"ReFlip/ddi/event-driven/stuck-on+none", 0x057b075827bda260, 0xac95ff91e64cfae3},
    {"ReFlip/ddi/event-driven/stuck-on+spare-rows", 0x99aff465eab3980d, 0xe447d5cfa0a20cb6},
    {"ReFlip/ddi/event-driven/stuck-on+ecc-dup", 0xc972af5ba2d48306, 0x7e8499dd938720c0},
    {"ReFlip/ddi/event-driven/stuck-on+refresh", 0xfc2a176ccdd34671, 0x510b4e40469ac9f8},
    {"ReFlip/ddi/replay", 0x6f9709bb29d5fa07, 0x91b28cca6edf4375},
    {"ReFlip/ddi/replay/stuck-on+none", 0xf12bc804add70772, 0xac95ff91e64cfae3},
    {"ReFlip/ddi/replay/stuck-on+spare-rows", 0x00ba6a1893ca2867, 0xe447d5cfa0a20cb6},
    {"ReFlip/ddi/replay/stuck-on+ecc-dup", 0x327d49cf235b19a0, 0x7e8499dd938720c0},
    {"ReFlip/ddi/replay/stuck-on+refresh", 0xe7085230c4091b2b, 0x510b4e40469ac9f8},
    {"GoPIM-Vanilla/ddi/closed-form", 0xc1e4939f63d2b1b3, 0xadac6fbecdf3b1b3},
    {"GoPIM-Vanilla/ddi/closed-form/stuck-on+none", 0x56125abe820c0ac5, 0x526c37d61ce42807},
    {"GoPIM-Vanilla/ddi/closed-form/stuck-on+spare-rows", 0xe5383a0f304fef1d, 0xe1bee1953e366fb7},
    {"GoPIM-Vanilla/ddi/closed-form/stuck-on+ecc-dup", 0x377ed73eadccb67f, 0x0cff19bb351995b1},
    {"GoPIM-Vanilla/ddi/closed-form/stuck-on+refresh", 0x8e5234616034fa86, 0xf764e3fdf905db32},
    {"GoPIM-Vanilla/ddi/event-driven", 0x25b4c2a8f44a8300, 0xadac6fbecdf3b1b3},
    {"GoPIM-Vanilla/ddi/event-driven/stuck-on+none", 0xeebad75fc0ffb793, 0x526c37d61ce42807},
    {"GoPIM-Vanilla/ddi/event-driven/stuck-on+spare-rows", 0xa743a40c58449651, 0xe1bee1953e366fb7},
    {"GoPIM-Vanilla/ddi/event-driven/stuck-on+ecc-dup", 0x5dbed8cd099956c3, 0x0cff19bb351995b1},
    {"GoPIM-Vanilla/ddi/event-driven/stuck-on+refresh", 0x1affdc7dd8867334, 0xf764e3fdf905db32},
    {"GoPIM-Vanilla/ddi/replay", 0x9bdc04ef98d36062, 0xadac6fbecdf3b1b3},
    {"GoPIM-Vanilla/ddi/replay/stuck-on+none", 0x5e2f3c93d09bea85, 0x526c37d61ce42807},
    {"GoPIM-Vanilla/ddi/replay/stuck-on+spare-rows", 0x20cffcf0e5df339f, 0xe1bee1953e366fb7},
    {"GoPIM-Vanilla/ddi/replay/stuck-on+ecc-dup", 0x5396fac1ab96e089, 0x0cff19bb351995b1},
    {"GoPIM-Vanilla/ddi/replay/stuck-on+refresh", 0x1f6d322e6c411746, 0xf764e3fdf905db32},
    {"GoPIM/ddi/closed-form", 0x9770cd7e2b226d0f, 0x47699ca76c580904},
    {"GoPIM/ddi/closed-form/stuck-on+none", 0x0743c1253a2373e1, 0xe3df1a81232b4903},
    {"GoPIM/ddi/closed-form/stuck-on+spare-rows", 0xa0cfa0b7db1bc348, 0x168aa53eb86cfbdc},
    {"GoPIM/ddi/closed-form/stuck-on+ecc-dup", 0x21858182ad5feb69, 0x7408666862bd8891},
    {"GoPIM/ddi/closed-form/stuck-on+refresh", 0x87b3ad330c9b443c, 0x3a2d740f4221432f},
    {"GoPIM/ddi/event-driven", 0xb83eeb93ec151a5e, 0x47699ca76c580904},
    {"GoPIM/ddi/event-driven/stuck-on+none", 0x05398d3c6692f767, 0xe3df1a81232b4903},
    {"GoPIM/ddi/event-driven/stuck-on+spare-rows", 0xd7660bf3e1d46f12, 0x168aa53eb86cfbdc},
    {"GoPIM/ddi/event-driven/stuck-on+ecc-dup", 0x677c6f20b9c45354, 0x7408666862bd8891},
    {"GoPIM/ddi/event-driven/stuck-on+refresh", 0x3b0536b11a5b9cf2, 0x3a2d740f4221432f},
    {"GoPIM/ddi/replay", 0x7bfde993257e3464, 0x47699ca76c580904},
    {"GoPIM/ddi/replay/stuck-on+none", 0x471f94929330ab35, 0xe3df1a81232b4903},
    {"GoPIM/ddi/replay/stuck-on+spare-rows", 0x7fdef90dde63f05c, 0x168aa53eb86cfbdc},
    {"GoPIM/ddi/replay/stuck-on+ecc-dup", 0x692d5db31f71827a, 0x7408666862bd8891},
    {"GoPIM/ddi/replay/stuck-on+refresh", 0x756637b4f10a9440, 0x3a2d740f4221432f},
    {"Serial/Cora/closed-form", 0xf29c6ef7bce7d2be, 0x8c29400d8f269f92},
    {"Serial/Cora/closed-form/stuck-on+none", 0x1e17f4e39f0f6ec5, 0x88c50040f0cdb18e},
    {"Serial/Cora/closed-form/stuck-on+spare-rows", 0x0d0bf13276a8e20b, 0xb1ee137968a99cdd},
    {"Serial/Cora/closed-form/stuck-on+ecc-dup", 0x4c13dfb2f3f5a29f, 0x12c86b5b3f66e8af},
    {"Serial/Cora/closed-form/stuck-on+refresh", 0xccae011aedff3f0a, 0x8d43b5029aa7ff1e},
    {"Serial/Cora/event-driven", 0xf022d8c9e3fad63e, 0x8c29400d8f269f92},
    {"Serial/Cora/event-driven/stuck-on+none", 0xcb89a878c11185a0, 0x88c50040f0cdb18e},
    {"Serial/Cora/event-driven/stuck-on+spare-rows", 0x44435eb9db4dbed6, 0xb1ee137968a99cdd},
    {"Serial/Cora/event-driven/stuck-on+ecc-dup", 0xc86d091ccdd21249, 0x12c86b5b3f66e8af},
    {"Serial/Cora/event-driven/stuck-on+refresh", 0xe43ad74cd93a51cd, 0x8d43b5029aa7ff1e},
    {"Serial/Cora/replay", 0x8958e9f6f2638400, 0x8c29400d8f269f92},
    {"Serial/Cora/replay/stuck-on+none", 0x1ea5e41ccd78afba, 0x88c50040f0cdb18e},
    {"Serial/Cora/replay/stuck-on+spare-rows", 0xdb2375a285a2a5e0, 0xb1ee137968a99cdd},
    {"Serial/Cora/replay/stuck-on+ecc-dup", 0x1eb4e71c05074b67, 0x12c86b5b3f66e8af},
    {"Serial/Cora/replay/stuck-on+refresh", 0x5facd38d89dc64d7, 0x8d43b5029aa7ff1e},
    {"SlimGNN-like/Cora/closed-form", 0xb0119f9fbab65614, 0x56e4587e9c1b84ba},
    {"SlimGNN-like/Cora/closed-form/stuck-on+none", 0xd6d5cc5bf710aaed, 0xc69a1fe654e66bfe},
    {"SlimGNN-like/Cora/closed-form/stuck-on+spare-rows", 0xc42797c7d0f7af63, 0xa037c07881d0c1aa},
    {"SlimGNN-like/Cora/closed-form/stuck-on+ecc-dup", 0xea4de27f30f4f954, 0xe96e625095aa9442},
    {"SlimGNN-like/Cora/closed-form/stuck-on+refresh", 0x89e8a61484ad0c82, 0x4178da16a4f43a80},
    {"SlimGNN-like/Cora/event-driven", 0x24b38e7a3b225f20, 0x56e4587e9c1b84ba},
    {"SlimGNN-like/Cora/event-driven/stuck-on+none", 0xcbbe4e96f0feed97, 0xc69a1fe654e66bfe},
    {"SlimGNN-like/Cora/event-driven/stuck-on+spare-rows", 0x1ac8f789570a037f, 0xa037c07881d0c1aa},
    {"SlimGNN-like/Cora/event-driven/stuck-on+ecc-dup", 0x75b5af0e19680b00, 0xe96e625095aa9442},
    {"SlimGNN-like/Cora/event-driven/stuck-on+refresh", 0x5b48f7e7bbd6def4, 0x4178da16a4f43a80},
    {"SlimGNN-like/Cora/replay", 0x5e92b665fdf6ef0e, 0x56e4587e9c1b84ba},
    {"SlimGNN-like/Cora/replay/stuck-on+none", 0x93877c30ebe5fd49, 0xc69a1fe654e66bfe},
    {"SlimGNN-like/Cora/replay/stuck-on+spare-rows", 0x54c9ff56653d0081, 0xa037c07881d0c1aa},
    {"SlimGNN-like/Cora/replay/stuck-on+ecc-dup", 0xa01bddbc2ba4154e, 0xe96e625095aa9442},
    {"SlimGNN-like/Cora/replay/stuck-on+refresh", 0x83f504d898263c4e, 0x4178da16a4f43a80},
    {"ReGraphX/Cora/closed-form", 0x807fbd40d12aa9c5, 0xbc420ac8dc127272},
    {"ReGraphX/Cora/closed-form/stuck-on+none", 0xb96ea08d4afe54e2, 0xd31ae712771001a7},
    {"ReGraphX/Cora/closed-form/stuck-on+spare-rows", 0x004f60e0d1fcd166, 0x1fdbcea3a6411146},
    {"ReGraphX/Cora/closed-form/stuck-on+ecc-dup", 0x5043c2cce6b7f3ba, 0xdd49a9b9c90c2c86},
    {"ReGraphX/Cora/closed-form/stuck-on+refresh", 0xb486ab876e4b20cf, 0x6e750cd4cc7c1275},
    {"ReGraphX/Cora/event-driven", 0x2fd11f087e0d5eea, 0xbc420ac8dc127272},
    {"ReGraphX/Cora/event-driven/stuck-on+none", 0x2c65c793ad63b990, 0xd31ae712771001a7},
    {"ReGraphX/Cora/event-driven/stuck-on+spare-rows", 0xe7114cfd13722f8c, 0x1fdbcea3a6411146},
    {"ReGraphX/Cora/event-driven/stuck-on+ecc-dup", 0xcf829d10aae07854, 0xdd49a9b9c90c2c86},
    {"ReGraphX/Cora/event-driven/stuck-on+refresh", 0x1e5e6fcaac1025bd, 0x6e750cd4cc7c1275},
    {"ReGraphX/Cora/replay", 0x64c9f9d242d89250, 0xbc420ac8dc127272},
    {"ReGraphX/Cora/replay/stuck-on+none", 0xa91e153b15754d9e, 0xd31ae712771001a7},
    {"ReGraphX/Cora/replay/stuck-on+spare-rows", 0x480f391c52ce9eda, 0x1fdbcea3a6411146},
    {"ReGraphX/Cora/replay/stuck-on+ecc-dup", 0x159f167d57082156, 0xdd49a9b9c90c2c86},
    {"ReGraphX/Cora/replay/stuck-on+refresh", 0xdfb12ed2bff19fcb, 0x6e750cd4cc7c1275},
    {"ReFlip/Cora/closed-form", 0x3c38a707e844d0c4, 0x65c85f90b6a4111c},
    {"ReFlip/Cora/closed-form/stuck-on+none", 0x1ea39dd5f82a19ea, 0x0ea84fe9cedcc87a},
    {"ReFlip/Cora/closed-form/stuck-on+spare-rows", 0xa75f7068f4bd26a8, 0x6468160e2f487ca9},
    {"ReFlip/Cora/closed-form/stuck-on+ecc-dup", 0xcd7396f211cc5833, 0xcc94378f3ace1f93},
    {"ReFlip/Cora/closed-form/stuck-on+refresh", 0xdfc0f524c2afd907, 0x680a4d4fab80af3d},
    {"ReFlip/Cora/event-driven", 0xed4c3ca6f0f37e4b, 0x65c85f90b6a4111c},
    {"ReFlip/Cora/event-driven/stuck-on+none", 0xcd9ac8f5dfc3c335, 0x0ea84fe9cedcc87a},
    {"ReFlip/Cora/event-driven/stuck-on+spare-rows", 0x6d1fc1f47e21d5cc, 0x6468160e2f487ca9},
    {"ReFlip/Cora/event-driven/stuck-on+ecc-dup", 0xd0704f6f334a0227, 0xcc94378f3ace1f93},
    {"ReFlip/Cora/event-driven/stuck-on+refresh", 0x5b9f7c5f5121fc3a, 0x680a4d4fab80af3d},
    {"ReFlip/Cora/replay", 0xe3181826a045d659, 0x65c85f90b6a4111c},
    {"ReFlip/Cora/replay/stuck-on+none", 0xf9481a73510b0c67, 0x0ea84fe9cedcc87a},
    {"ReFlip/Cora/replay/stuck-on+spare-rows", 0x2b086e3486cdcf06, 0x6468160e2f487ca9},
    {"ReFlip/Cora/replay/stuck-on+ecc-dup", 0x3d60f63f2a28be85, 0xcc94378f3ace1f93},
    {"ReFlip/Cora/replay/stuck-on+refresh", 0x32881988c7f03b04, 0x680a4d4fab80af3d},
    {"GoPIM-Vanilla/Cora/closed-form", 0x483b9be607b86bb2, 0xe9ae1eb0963f4de1},
    {"GoPIM-Vanilla/Cora/closed-form/stuck-on+none", 0x835435d3873868bb, 0xd5b7267a015451aa},
    {"GoPIM-Vanilla/Cora/closed-form/stuck-on+spare-rows", 0xb61423d18789c8ba, 0x7e0e308bf291c004},
    {"GoPIM-Vanilla/Cora/closed-form/stuck-on+ecc-dup", 0x9c9423827591d0fb, 0x9391f6b7c00263c3},
    {"GoPIM-Vanilla/Cora/closed-form/stuck-on+refresh", 0xacf13e671c99e398, 0x915428c8301ca798},
    {"GoPIM-Vanilla/Cora/event-driven", 0xac988d12eb571242, 0xe9ae1eb0963f4de1},
    {"GoPIM-Vanilla/Cora/event-driven/stuck-on+none", 0xc7696d1d55a3f34d, 0xd5b7267a015451aa},
    {"GoPIM-Vanilla/Cora/event-driven/stuck-on+spare-rows", 0x603feb3d150e7930, 0x7e0e308bf291c004},
    {"GoPIM-Vanilla/Cora/event-driven/stuck-on+ecc-dup", 0xa1a86527e1463c99, 0x9391f6b7c00263c3},
    {"GoPIM-Vanilla/Cora/event-driven/stuck-on+refresh", 0xf706bf47f3764a62, 0x915428c8301ca798},
    {"GoPIM-Vanilla/Cora/replay", 0x9faa5b94f5fcabd8, 0xe9ae1eb0963f4de1},
    {"GoPIM-Vanilla/Cora/replay/stuck-on+none", 0x1aa09b86c587c3f7, 0xd5b7267a015451aa},
    {"GoPIM-Vanilla/Cora/replay/stuck-on+spare-rows", 0x673a8453a957a82e, 0x7e0e308bf291c004},
    {"GoPIM-Vanilla/Cora/replay/stuck-on+ecc-dup", 0x44ee207d377c40a3, 0x9391f6b7c00263c3},
    {"GoPIM-Vanilla/Cora/replay/stuck-on+refresh", 0x3ee55edbf3ba14d4, 0x915428c8301ca798},
    {"GoPIM/Cora/closed-form", 0xd79bebd2f9142d4f, 0x34daca04ed3e0cae},
    {"GoPIM/Cora/closed-form/stuck-on+none", 0xc6bdf643223c1921, 0x7d0f5b45c0f6385d},
    {"GoPIM/Cora/closed-form/stuck-on+spare-rows", 0x2f890faf0b6c2047, 0x9821e4e647ae39cb},
    {"GoPIM/Cora/closed-form/stuck-on+ecc-dup", 0xa2dd3b8c9d338822, 0xdca37f3d1bc1c979},
    {"GoPIM/Cora/closed-form/stuck-on+refresh", 0x8a93261e16e1a0cc, 0xc1498b9e73d0cce9},
    {"GoPIM/Cora/event-driven", 0xea7e1e50ad406a7c, 0x34daca04ed3e0cae},
    {"GoPIM/Cora/event-driven/stuck-on+none", 0x5e54e1637cbae347, 0x7d0f5b45c0f6385d},
    {"GoPIM/Cora/event-driven/stuck-on+spare-rows", 0x2e8fca1d30befdb0, 0x9821e4e647ae39cb},
    {"GoPIM/Cora/event-driven/stuck-on+ecc-dup", 0xa543a736abfa320b, 0xdca37f3d1bc1c979},
    {"GoPIM/Cora/event-driven/stuck-on+refresh", 0x43467d286a3c4d6a, 0xc1498b9e73d0cce9},
    {"GoPIM/Cora/replay", 0x0e9e6e66f581ef9e, 0x34daca04ed3e0cae},
    {"GoPIM/Cora/replay/stuck-on+none", 0x7409591646f9b495, 0x7d0f5b45c0f6385d},
    {"GoPIM/Cora/replay/stuck-on+spare-rows", 0x4bad44f9fae2ccda, 0x9821e4e647ae39cb},
    {"GoPIM/Cora/replay/stuck-on+ecc-dup", 0x64fd9b5472c916b1, 0xdca37f3d1bc1c979},
    {"GoPIM/Cora/replay/stuck-on+refresh", 0xc0b87c774e04b1a0, 0xc1498b9e73d0cce9},
    {"GoPIM/ddi/estimates", 0x1c670cf61380fb46, 0x7e3ae177d4d1eda5},
    {"gcn-train/GoPIM/ddi/closed-form", 0x9770cd7e2b226d0f, 0x17a8192dcdb9e5b4},
    {"gcn-train/GoPIM/ddi/event-driven", 0xb83eeb93ec151a5e, 0x17a8192dcdb9e5b4},
    {"gcn-train/GoPIM/ddi/replay", 0x7bfde993257e3464, 0x17a8192dcdb9e5b4},
    {"gcn-train/Serial/ddi/closed-form", 0x7f03da8bbaae934b, 0x3728d6b49e2468b7},
    {"gcn-train/Serial/ddi/event-driven", 0x504888610badc7df, 0x3728d6b49e2468b7},
    {"gcn-train/Serial/ddi/replay", 0xd024311ce9603a09, 0x3728d6b49e2468b7},
    {"gnn-infer[row-split]/GoPIM/Cora/closed-form", 0xf4efbad4e0bda2be, 0x6063a863baa9d742},
    {"gnn-infer[row-split]/GoPIM/Cora/event-driven", 0xb72a60b8eb6b4789, 0x6063a863baa9d742},
    {"gnn-infer[row-split]/GoPIM/Cora/replay", 0x46e805e5a669a16b, 0x6063a863baa9d742},
    {"gnn-infer[row-split]/Serial/Cora/closed-form", 0x48aaf9d7057dac4a, 0xc897c1fc7ed7b8a6},
    {"gnn-infer[row-split]/Serial/Cora/event-driven", 0x6040292fab0b3f7f, 0xc897c1fc7ed7b8a6},
    {"gnn-infer[row-split]/Serial/Cora/replay", 0x07232b1f7b057f09, 0xc897c1fc7ed7b8a6},
    {"gnn-infer[col-split]/GoPIM/Cora/closed-form", 0xfbba6288e2dd8460, 0xc08982fac58ce753},
    {"gnn-infer[col-split]/GoPIM/Cora/event-driven", 0x2d54950ac976e800, 0xc08982fac58ce753},
    {"gnn-infer[col-split]/GoPIM/Cora/replay", 0xc5ccd5bb780c64f2, 0xc08982fac58ce753},
    {"gnn-infer[col-split]/Serial/Cora/closed-form", 0x816b3baf2e29b13d, 0x67569b5697c573d8},
    {"gnn-infer[col-split]/Serial/Cora/event-driven", 0x8b96de3c31290546, 0x67569b5697c573d8},
    {"gnn-infer[col-split]/Serial/Cora/replay", 0x0bbc2a9306c8dc10, 0x67569b5697c573d8},
    {"gnn-infer[nnz-balanced]/GoPIM/Cora/closed-form", 0x384d4ce64c5eb4c5, 0x2caef1d8a7df6d86},
    {"gnn-infer[nnz-balanced]/GoPIM/Cora/event-driven", 0xef3abe3378017ca4, 0x2caef1d8a7df6d86},
    {"gnn-infer[nnz-balanced]/GoPIM/Cora/replay", 0x7b7a1837f4d83682, 0x2caef1d8a7df6d86},
    {"gnn-infer[nnz-balanced]/Serial/Cora/closed-form", 0x7b638ca6b696e335, 0x94e9c598c9f9c1b7},
    {"gnn-infer[nnz-balanced]/Serial/Cora/event-driven", 0x5c93225c61565a64, 0x94e9c598c9f9c1b7},
    {"gnn-infer[nnz-balanced]/Serial/Cora/replay", 0xb27cce19fe3e223e, 0x94e9c598c9f9c1b7},
    {"cnn-infer/GoPIM/mnist/closed-form", 0x759f98a5173dd859, 0x383748c015168b05},
    {"cnn-infer/GoPIM/mnist/event-driven", 0xabeed884bae53978, 0x383748c015168b05},
    {"cnn-infer/GoPIM/mnist/replay", 0x1dd862b7e1d768d2, 0x383748c015168b05},
    {"cnn-infer/Serial/mnist/closed-form", 0xbb1252e1504ce280, 0xbb39c4c93a7a892a},
    {"cnn-infer/Serial/mnist/event-driven", 0x925830506efb7c9f, 0xbb39c4c93a7a892a},
    {"cnn-infer/Serial/mnist/replay", 0x62d6e4651efc48dd, 0xbb39c4c93a7a892a},
};
// clang-format on

TEST(RunGolden, DigestsMatchTable)
{
    const auto rows = computeRows();
    for (size_t i = 0; i < rows.size(); ++i) {
        const std::string want =
            i < std::size(kRunGolden)
                ? formatRow(kRunGolden[i].name, kRunGolden[i].json,
                            kRunGolden[i].isa)
                : "";
        EXPECT_EQ(rows[i], want) << "computed row:\n    " << rows[i];
    }
    EXPECT_EQ(rows.size(), std::size(kRunGolden));
}

/**
 * Closed-form runs on products, the largest catalog graph, where
 * planning cost shows: fault-free ReGraphX reads no degree profile,
 * GoPIM ranks it, and stuck-on faults keep the per-vertex mapping for
 * the wear model. The isa column is 0: these rows run without an ISA
 * recorder, since the ddi and Cora rows above already pin the
 * lowering and recording products' 38k micro-batches only adds time.
 */
const GoldenRun kProductsGolden[] = {
    {"ReGraphX/products/closed-form", 0x66c7176f2382cdb3, 0},
    {"GoPIM/products/closed-form", 0xaa9cc34d72412a3f, 0},
    {"ReGraphX/products/closed-form/stuck-on+none", 0x53102b27ae020023, 0},
};

TEST(RunGolden, ProductsDigestsMatchTable)
{
    const auto hw = reram::AcceleratorConfig::paperDefault();
    const auto workload = gcn::Workload::paperDefault("products");
    const auto profile =
        gcn::VertexProfile::build(workload.dataset, workload.seed);
    core::SystemConfig faulty =
        core::makeSystem(core::SystemKind::ReGraphX);
    faulty.fault.params.stuckOnRate = 0.01;
    const core::SystemConfig systems[] = {
        core::makeSystem(core::SystemKind::ReGraphX),
        core::makeSystem(core::SystemKind::GoPim), faulty};
    static_assert(std::size(systems) == std::size(kProductsGolden));
    for (size_t i = 0; i < std::size(systems); ++i) {
        const std::string row = formatRow(
            kProductsGolden[i].name,
            fnv1a64(core::runResultToJson(
                        core::Accelerator(hw, systems[i])
                            .run(workload, profile))
                        .dump()),
            0);
        EXPECT_EQ(row, formatRow(kProductsGolden[i].name,
                                 kProductsGolden[i].json, 0))
            << "computed row:\n    " << row;
    }
}

} // namespace
} // namespace gopim
