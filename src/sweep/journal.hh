/**
 * @file
 * Append-only job journal: the crash-safety substrate of the sweep
 * orchestrator.
 *
 * A sweep is a matrix of independent jobs, each expensive; losing a
 * half-finished campaign to a crash, OOM kill, or Ctrl-C throws away
 * hours of compute. The journal makes every *completed* job durable
 * the moment it finishes: one JSONL record per job, written with
 * O_APPEND + fdatasync, so after any interruption the journal holds
 * exactly the set of jobs whose results are safe to reuse.
 *
 * ## File format (one JSON object per line)
 *
 * Line 1 is the header:
 *
 *   {"type":"cchar-sweep-journal","v":1,"jobs":N,"spec_hash":"0x..."}
 *
 * Every further line is a job record keyed by the canonical job hash:
 *
 *   {"type":"job","hash":"0x...","index":i,"attempts":k,
 *    "quarantined":false,"status":"ok",...outcome fields...,
 *    "counters":{...},"gauges":{...},"histograms":{...}}
 *
 * ## Exactness discipline
 *
 * `cchar sweep --resume` must reproduce the uninterrupted aggregate
 * JSON/CSV byte for byte, so a record stores everything a live run
 * would have contributed, losslessly:
 *
 *  - every double is serialized as a hexadecimal float string
 *    ("0x1.8p+3"), which round-trips exactly through strtod;
 *  - every 64-bit counter is a plain JSON integer parsed with
 *    JsonScanner::readUInt (no double in the path);
 *  - strings round-trip through the scanner's escape decoding;
 *  - the job's whole metrics registry (counters, gauges, sparse
 *    histogram buckets) is captured, so the resumed run can rebuild
 *    the per-job registry and merge it in canonical index order as
 *    if the job had just run.
 *
 * ## Identity and validation
 *
 * The canonical job hash is FNV-1a 64 over the full job spec
 * (including its index, which disambiguates duplicate matrix
 * points); the spec hash folds all job hashes in order. --resume
 * refuses a journal whose spec hash does not match the expanded
 * spec, and every record's hash is revalidated against the job at
 * its index, so a journal can never be replayed against the wrong
 * matrix.
 *
 * ## Crash tolerance
 *
 * A SIGKILL can land mid-write, leaving a torn final line. The
 * loader therefore tolerates an unparseable or unterminated *last*
 * line (the record is dropped with a diagnostic and the job simply
 * reruns); a malformed line anywhere earlier is a ParseError,
 * because it cannot be explained by a single interrupted append. A
 * record must hold each column of the sweep field tables exactly once
 * (engine.hh); one that lacks or repeats a column is malformed.
 * Duplicate records for one index are last-wins (a rerun appends a
 * fresh record rather than rewriting the file).
 */

#ifndef CCHAR_SWEEP_JOURNAL_HH
#define CCHAR_SWEEP_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine.hh"
#include "obs/registry.hh"
#include "spec.hh"

namespace cchar::sweep {

/** Canonical FNV-1a 64 hash of a full job spec (index included). */
std::uint64_t jobHash(const SweepJob &job);

/** Fold of all job hashes in canonical order (+ job count). */
std::uint64_t specHash(const std::vector<SweepJob> &jobs);

/** One parsed journal record: outcome + captured registry content. */
struct JournalRecord
{
    std::uint64_t hash = 0;
    /** Outcome as journaled; `outcome.job` is NOT stored in the file
     *  and stays default until resume rebinds it from the spec. */
    JobOutcome outcome;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, obs::HistogramData>> histograms;
};

/** Parsed journal: header + records (last-wins per index). */
struct JournalContents
{
    std::uint64_t specHash = 0;
    std::size_t jobs = 0;
    std::vector<JournalRecord> records;
    /** True when a torn final line was dropped. */
    bool truncatedTail = false;
};

/** Header line (newline-terminated). */
std::string formatJournalHeader(std::uint64_t specHash,
                                std::size_t jobs);

/**
 * Job record line (newline-terminated). `registry` is the job's
 * private registry exactly as runJob filled it.
 */
std::string formatJournalRecord(const JobOutcome &outcome,
                                const obs::MetricsRegistry &registry);

/** Record line from an already-parsed record (fixpoint with parse). */
std::string formatJournalRecord(const JournalRecord &record);

/**
 * Parse a whole journal document.
 * @throws core::CCharError(ParseError) on a bad header or a
 *         malformed non-final line; a torn final line only sets
 *         truncatedTail and reports a warning diagnostic.
 */
JournalContents parseJournal(const std::string &text);

/** parseJournal over a file (CCharError(IoError) if unreadable). */
JournalContents loadJournalFile(const std::string &path);

/**
 * Rebuild a job's metrics registry from its journal record
 * (counters added, gauges set, histogram payloads restored
 * verbatim). Names were captured in sorted order, so interning
 * order — and with it the downstream merge — matches a live run.
 */
void restoreRegistry(const JournalRecord &record,
                     obs::MetricsRegistry &registry);

/**
 * Durable appender. Each append formats one record, writes it with
 * a single O_APPEND write, and fdatasyncs before returning, so a
 * record is either fully on disk or not in the file at all (modulo
 * a torn tail, which the loader tolerates). Thread-safe.
 */
class JournalWriter
{
  public:
    /**
     * @param path   Journal file.
     * @param append false: create/truncate and write the header;
     *               true: append to an existing (validated) journal.
     * @throws core::CCharError(IoError) when the file cannot be
     *         opened or written.
     */
    JournalWriter(const std::string &path, std::uint64_t specHash,
                  std::size_t jobs, bool append);

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    ~JournalWriter();

    /** Durably append one completed/failed job. */
    void append(const JobOutcome &outcome,
                const obs::MetricsRegistry &registry);

    /** Durably re-append an already-parsed record (used when a
     *  resume writes to a different journal file than it read, so
     *  the new journal is complete on its own). */
    void append(const JournalRecord &record);

    const std::string &path() const { return path_; }

  private:
    void writeDurably(const std::string &line);

    std::string path_;
    std::mutex mutex_;
    int fd_ = -1;
};

} // namespace cchar::sweep

#endif // CCHAR_SWEEP_JOURNAL_HH
