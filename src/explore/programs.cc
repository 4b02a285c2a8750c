#include "explore/programs.hh"

#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"

namespace persim {

namespace {

/** Simulated addresses of the litmus variables (set during setup). */
struct LitmusState
{
    Addr data = invalid_addr;
    Addr seen = invalid_addr;
    Addr flag = invalid_addr;
};

} // namespace

ProgramFactory
publishLitmusProgram(bool consumer_barrier)
{
    return [consumer_barrier]() {
        auto state = std::make_shared<LitmusState>();

        ExploreProgram program;
        program.observed = std::make_shared<std::vector<ObservedCell>>();
        auto observed = program.observed;
        program.setup = [state, observed](ThreadCtx &ctx) {
            state->data = ctx.pmalloc(8);
            state->seen = ctx.pmalloc(8);
            state->flag = ctx.vmalloc(8);
            // The invariant reads exactly these two cells, so the
            // explorer's constraint-guided pruning may restrict cut
            // enumeration to them.
            observed->assign({ObservedCell{"data", state->data, 8},
                              ObservedCell{"seen", state->seen, 8}});
        };
        program.workers.push_back([state](ThreadCtx &ctx) {
            ctx.store(state->data, 1);
            ctx.persistBarrier();
            ctx.store(state->flag, 1);
        });
        program.workers.push_back([state, consumer_barrier](ThreadCtx &ctx) {
            if (ctx.load(state->flag) == 1) {
                if (consumer_barrier)
                    ctx.persistBarrier();
                ctx.store(state->seen, 1);
            }
        });
        program.invariant = [state]() -> RecoveryInvariant {
            return [state](const MemoryImage &image) -> std::string {
                if (image.load(state->seen, 8) == 1 &&
                    image.load(state->data, 8) != 1)
                    return "recovery observed seen=1 without data=1";
                return "";
            };
        };
        return program;
    };
}

ProgramFactory
withoutObserved(ProgramFactory factory)
{
    return [factory = std::move(factory)]() {
        ExploreProgram program = factory();
        program.observed.reset();
        return program;
    };
}

ProgramFactory
queueProgram(const QueueExploreOptions &options)
{
    PERSIM_REQUIRE(options.threads >= 1, "need at least one thread");
    PERSIM_REQUIRE(options.payload_bytes >= min_payload_bytes,
                   "payload too short");
    return [options]() {
        auto queue = std::make_shared<std::unique_ptr<PersistentQueue>>();

        ExploreProgram program;
        program.setup = [queue, options](ThreadCtx &ctx) {
            *queue = createQueue(ctx, options.kind, options.queue,
                                 options.threads);
        };
        for (std::uint32_t t = 0; t < options.threads; ++t) {
            program.workers.push_back([queue, options, t](ThreadCtx &ctx) {
                for (std::uint32_t i = 0; i < options.inserts_per_thread;
                     ++i) {
                    const std::uint64_t op_id =
                        1 + t * options.inserts_per_thread + i;
                    const std::vector<std::uint8_t> payload =
                        makePayload(op_id, options.payload_bytes);
                    (*queue)->insert(ctx, t, payload.data(),
                                     payload.size(), op_id);
                }
            });
        }
        program.invariant = [queue]() -> RecoveryInvariant {
            return makeRecoveryInvariant((*queue)->layout(),
                                         (*queue)->golden());
        };
        return program;
    };
}

ModelConfig
queueExploreModel()
{
    ModelConfig model = ModelConfig::epoch();
    model.atomic_granularity = 64;
    return model;
}

namespace {

/** One pre-generated instruction of a random program. */
enum class RandOpKind : std::uint8_t {
    Publish,   //!< data[t] = k; persistBarrier(); flag[t] = k.
    Store,     //!< Random-value store to a persistent scratch cell.
    Rmw,       //!< Fetch-add on a persistent scratch cell.
    Load,      //!< Load from a persistent scratch cell.
    Barrier,   //!< persistBarrier().
    NewStrand, //!< newStrand() (allow_strands only).
    VStore,    //!< Store to a volatile scratch cell.
    VLoad,     //!< Load from a volatile scratch cell.
    Flush,     //!< clflush a scratch cell (allow_flushes only).
    FlushOpt,  //!< clflushopt a scratch cell (allow_flushes only).
    Clwb,      //!< clwb a scratch cell (allow_flushes only).
    Sfence,    //!< sfence (allow_flushes only).
    Mfence,    //!< mfence (allow_flushes only).
};

struct RandInstr
{
    RandOpKind kind = RandOpKind::Barrier;
    std::uint32_t cell = 0;
    std::uint64_t value = 0;
    std::uint8_t size = 8;
};

/** Simulated addresses of a random program's working set. */
struct RandomState
{
    Addr scratch = invalid_addr;  //!< Shared persistent cells.
    Addr vscratch = invalid_addr; //!< Shared volatile cells.
    Addr data = invalid_addr;     //!< One 8-byte cell per thread.
    Addr flag = invalid_addr;     //!< One 8-byte cell per thread.
};

} // namespace

ProgramFactory
randomProgram(std::uint64_t seed, const RandomProgramOptions &options,
              std::shared_ptr<RandomProgramLayout> layout)
{
    PERSIM_REQUIRE(options.threads >= 1, "need at least one thread");
    PERSIM_REQUIRE(options.ops_per_thread >= 1, "need at least one op");
    PERSIM_REQUIRE(options.scratch_cells >= 1 &&
                       options.volatile_cells >= 1,
                   "need scratch cells");

    // Pre-generate every thread's instruction list so the program is
    // a pure function of (seed, options); workers just interpret it.
    std::vector<std::vector<RandInstr>> script(options.threads);
    Rng rng(seed);
    for (std::uint32_t t = 0; t < options.threads; ++t) {
        Rng thread_rng = rng.split();
        std::uint64_t published = 0;
        auto &ops = script[t];
        // Every thread publishes at least once, so the recovery
        // invariant (and the barrier it depends on) is always live.
        ops.push_back({RandOpKind::Publish, 0, ++published, 8});
        while (ops.size() < options.ops_per_thread) {
            const std::uint64_t roll = thread_rng.nextBounded(100);
            RandInstr instr;
            if (options.allow_flushes) {
                // A separate table (rather than reshuffling the one
                // below) keeps the frozen no-flush corpus bit-exact
                // for old seeds. Flushes and fences take their mass
                // mostly from barriers: explicit x86 persistency is
                // the point of these programs.
                if (roll < 14) {
                    instr.kind = RandOpKind::Publish;
                    instr.value = ++published;
                } else if (roll < 38) {
                    instr.kind = RandOpKind::Store;
                    instr.cell = static_cast<std::uint32_t>(
                        thread_rng.nextBounded(options.scratch_cells));
                    instr.value = thread_rng.next();
                    instr.size = static_cast<std::uint8_t>(
                        1U << thread_rng.nextBounded(4));
                } else if (roll < 46) {
                    instr.kind = RandOpKind::Rmw;
                    instr.cell = static_cast<std::uint32_t>(
                        thread_rng.nextBounded(options.scratch_cells));
                    instr.value = thread_rng.nextBounded(1ULL << 20);
                } else if (roll < 54) {
                    instr.kind = RandOpKind::Load;
                    instr.cell = static_cast<std::uint32_t>(
                        thread_rng.nextBounded(options.scratch_cells));
                } else if (roll < 60) {
                    instr.kind = RandOpKind::Barrier;
                } else if (roll < 68) {
                    instr.kind = RandOpKind::Flush;
                    instr.cell = static_cast<std::uint32_t>(
                        thread_rng.nextBounded(options.scratch_cells));
                } else if (roll < 76) {
                    instr.kind = roll % 2 == 0 ? RandOpKind::FlushOpt
                                               : RandOpKind::Clwb;
                    instr.cell = static_cast<std::uint32_t>(
                        thread_rng.nextBounded(options.scratch_cells));
                } else if (roll < 84) {
                    instr.kind = roll % 2 == 0 ? RandOpKind::Sfence
                                               : RandOpKind::Mfence;
                } else if (roll < 90) {
                    instr.kind = options.allow_strands
                        ? RandOpKind::NewStrand : RandOpKind::Load;
                    instr.cell = static_cast<std::uint32_t>(
                        thread_rng.nextBounded(options.scratch_cells));
                } else if (roll < 95) {
                    instr.kind = RandOpKind::VStore;
                    instr.cell = static_cast<std::uint32_t>(
                        thread_rng.nextBounded(options.volatile_cells));
                    instr.value = thread_rng.next();
                } else {
                    instr.kind = RandOpKind::VLoad;
                    instr.cell = static_cast<std::uint32_t>(
                        thread_rng.nextBounded(options.volatile_cells));
                }
                ops.push_back(instr);
                continue;
            }
            if (roll < 18) {
                instr.kind = RandOpKind::Publish;
                instr.value = ++published;
            } else if (roll < 44) {
                instr.kind = RandOpKind::Store;
                instr.cell = static_cast<std::uint32_t>(
                    thread_rng.nextBounded(options.scratch_cells));
                instr.value = thread_rng.next();
                instr.size = static_cast<std::uint8_t>(
                    1U << thread_rng.nextBounded(4));
            } else if (roll < 54) {
                instr.kind = RandOpKind::Rmw;
                instr.cell = static_cast<std::uint32_t>(
                    thread_rng.nextBounded(options.scratch_cells));
                instr.value = thread_rng.nextBounded(1ULL << 20);
            } else if (roll < 64) {
                instr.kind = RandOpKind::Load;
                instr.cell = static_cast<std::uint32_t>(
                    thread_rng.nextBounded(options.scratch_cells));
            } else if (roll < 78) {
                instr.kind = RandOpKind::Barrier;
            } else if (roll < 88) {
                // Without strands this mass becomes extra loads, so
                // strand-free programs keep a comparable op density.
                instr.kind = options.allow_strands ? RandOpKind::NewStrand
                                                   : RandOpKind::Load;
                instr.cell = static_cast<std::uint32_t>(
                    thread_rng.nextBounded(options.scratch_cells));
            } else if (roll < 94) {
                instr.kind = RandOpKind::VStore;
                instr.cell = static_cast<std::uint32_t>(
                    thread_rng.nextBounded(options.volatile_cells));
                instr.value = thread_rng.next();
            } else {
                instr.kind = RandOpKind::VLoad;
                instr.cell = static_cast<std::uint32_t>(
                    thread_rng.nextBounded(options.volatile_cells));
            }
            ops.push_back(instr);
        }
    }

    return [options, script, layout]() {
        auto state = std::make_shared<RandomState>();

        ExploreProgram program;
        program.setup = [state, options, layout](ThreadCtx &ctx) {
            state->scratch = ctx.pmalloc(options.scratch_cells * 8ULL);
            state->data = ctx.pmalloc(options.threads * 8ULL);
            state->flag = ctx.pmalloc(options.threads * 8ULL);
            state->vscratch = ctx.vmalloc(options.volatile_cells * 8ULL);
            if (layout != nullptr) {
                layout->scratch = state->scratch;
                layout->vscratch = state->vscratch;
                layout->data = state->data;
                layout->flag = state->flag;
            }
        };
        for (std::uint32_t t = 0; t < options.threads; ++t) {
            program.workers.push_back(
                [state, t, ops = script[t]](ThreadCtx &ctx) {
                    for (const RandInstr &instr : ops) {
                        switch (instr.kind) {
                        case RandOpKind::Publish:
                            ctx.store(state->data + t * 8ULL, instr.value);
                            ctx.persistBarrier();
                            ctx.store(state->flag + t * 8ULL, instr.value);
                            break;
                        case RandOpKind::Store:
                            ctx.store(state->scratch + instr.cell * 8ULL,
                                      instr.value, instr.size);
                            break;
                        case RandOpKind::Rmw:
                            ctx.rmwFetchAdd(
                                state->scratch + instr.cell * 8ULL,
                                instr.value);
                            break;
                        case RandOpKind::Load:
                            ctx.load(state->scratch + instr.cell * 8ULL);
                            break;
                        case RandOpKind::Barrier:
                            ctx.persistBarrier();
                            break;
                        case RandOpKind::NewStrand:
                            ctx.newStrand();
                            break;
                        case RandOpKind::VStore:
                            ctx.store(state->vscratch + instr.cell * 8ULL,
                                      instr.value);
                            break;
                        case RandOpKind::VLoad:
                            ctx.load(state->vscratch + instr.cell * 8ULL);
                            break;
                        case RandOpKind::Flush:
                            ctx.clflush(state->scratch + instr.cell * 8ULL);
                            break;
                        case RandOpKind::FlushOpt:
                            ctx.clflushopt(state->scratch +
                                           instr.cell * 8ULL);
                            break;
                        case RandOpKind::Clwb:
                            ctx.clwb(state->scratch + instr.cell * 8ULL);
                            break;
                        case RandOpKind::Sfence:
                            ctx.sfence();
                            break;
                        case RandOpKind::Mfence:
                            ctx.mfence();
                            break;
                        }
                    }
                });
        }
        program.invariant = [state, options]() -> RecoveryInvariant {
            return [state,
                    options](const MemoryImage &image) -> std::string {
                for (std::uint32_t t = 0; t < options.threads; ++t) {
                    const std::uint64_t flag =
                        image.load(state->flag + t * 8ULL, 8);
                    const std::uint64_t data =
                        image.load(state->data + t * 8ULL, 8);
                    if (flag > data)
                        return "thread " + std::to_string(t) +
                               " recovered flag=" + std::to_string(flag) +
                               " ahead of data=" + std::to_string(data);
                }
                return "";
            };
        };
        return program;
    };
}

} // namespace persim
