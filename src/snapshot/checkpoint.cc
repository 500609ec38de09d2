#include "snapshot/checkpoint.h"

#include <signal.h>

#include <iostream>

namespace bitspread {
namespace snapshot {
namespace {

std::atomic<Checkpointer*> g_checkpointer{nullptr};
std::atomic<bool> g_handlers_installed{false};

extern "C" void interrupt_handler(int signum) {
  interrupt_flag.store(true, std::memory_order_relaxed);
  // One graceful chance: the next signal of the same kind kills as usual.
  struct sigaction action {};
  action.sa_handler = SIG_DFL;
  sigaction(signum, &action, nullptr);
}

}  // namespace

Checkpointer::Checkpointer(CheckpointOptions options)
    : options_(std::move(options)) {
  if (options_.ring == 0) options_.ring = 1;
}

std::string Checkpointer::ring_entry_path(std::uint32_t slot) const {
  return options_.path + "." + std::to_string(slot) + ".snap";
}

void Checkpointer::set_error(std::string message) {
  const std::lock_guard<std::mutex> lock(mutex_);
  error_ = std::move(message);
}

std::string Checkpointer::last_error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

bool Checkpointer::load_resume(const std::string& source) {
  const auto try_load = [](const std::string& path, RunSnapshot& out,
                           std::string* error) {
    const auto file = SnapshotFile::load(path, error);
    if (!file) return false;
    std::string decode_error;
    if (!RunSnapshot::decode(*file, out, &decode_error)) {
      if (error != nullptr) *error = path + ": " + decode_error;
      return false;
    }
    return true;
  };

  if (source != "auto") {
    RunSnapshot snap;
    std::string error;
    if (!try_load(source, snap, &error)) {
      set_error(error);
      std::cerr << "[resume failed: " << error << "]\n";
      return false;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    resume_ = std::move(snap);
    resume_consumed_ = false;
    sequence_ = resume_->sequence + 1;
    return true;
  }

  // Auto: scan the ring, keep every entry that verifies, pick the highest
  // write sequence. Corrupt entries are diagnosed and skipped — that IS the
  // fallback-to-previous-ring-entry semantics, since slots hold consecutive
  // sequences.
  std::optional<RunSnapshot> best;
  bool saw_corrupt = false;
  for (std::uint32_t slot = 0; slot < options_.ring; ++slot) {
    const std::string path = ring_entry_path(slot);
    RunSnapshot snap;
    std::string error;
    if (!try_load(path, snap, &error)) {
      // A missing slot is normal (ring not full yet); anything else means
      // a corrupt or truncated entry worth shouting about.
      if (error.find("cannot open") == std::string::npos) {
        std::cerr << "[corrupt snapshot skipped: " << error
                  << "; falling back to previous ring entry]\n";
        saw_corrupt = true;
      }
      continue;
    }
    if (!best || snap.sequence > best->sequence) best = std::move(snap);
  }
  if (!best) {
    set_error(saw_corrupt
                  ? "every ring entry under " + options_.path +
                        " is corrupt or truncated"
                  : "no snapshot found under " + options_.path);
    return false;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  resume_ = std::move(*best);
  resume_consumed_ = false;
  sequence_ = resume_->sequence + 1;
  return true;
}

bool Checkpointer::has_resume() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return resume_.has_value() && !resume_consumed_;
}

const RunSnapshot* Checkpointer::pending_resume() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return resume_.has_value() && !resume_consumed_ ? &*resume_ : nullptr;
}

const RunSnapshot* Checkpointer::take_resume(std::uint64_t ordinal,
                                             std::string_view tag) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!resume_.has_value() || resume_consumed_) return nullptr;
  if (resume_->run_ordinal != ordinal) return nullptr;
  if (resume_->engine_tag != tag) {
    std::cerr << "[resume skipped: snapshot was written by engine '"
              << resume_->engine_tag << "', this run is '" << tag << "']\n";
    return nullptr;
  }
  resume_consumed_ = true;
  resumed_.fetch_add(1);
  std::cerr << "[resuming from round " << resume_->round << " (snapshot seq "
            << resume_->sequence << ")]\n";
  return &*resume_;
}

bool Checkpointer::write(RunSnapshot snap) {
  const std::lock_guard<std::mutex> lock(mutex_);
  snap.sequence = sequence_;
  snap.build_stamp = snapshot::build_stamp();
  if (decorator_) decorator_(snap);
  const std::string path =
      ring_entry_path(static_cast<std::uint32_t>(sequence_ % options_.ring));
  std::string error;
  if (!snap.encode().write_atomic(path, &error)) {
    error_ = error;
    std::cerr << "[checkpoint write failed: " << error << "]\n";
    return false;
  }
  ++sequence_;
  written_.fetch_add(1);
  return true;
}

void install_checkpointer(Checkpointer* checkpointer) noexcept {
  g_checkpointer.store(checkpointer, std::memory_order_release);
}

Checkpointer* active_checkpointer() noexcept {
  return g_checkpointer.load(std::memory_order_acquire);
}

void request_interrupt() noexcept {
  interrupt_flag.store(true, std::memory_order_relaxed);
}

void clear_interrupt() noexcept {
  interrupt_flag.store(false, std::memory_order_relaxed);
}

bool install_interrupt_handlers() noexcept {
  if (g_handlers_installed.exchange(true)) return true;
  struct sigaction action {};
  action.sa_handler = &interrupt_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // No SA_RESTART: interrupt blocking I/O too.
  const bool ok = sigaction(SIGINT, &action, nullptr) == 0 &&
                  sigaction(SIGTERM, &action, nullptr) == 0;
  if (!ok) g_handlers_installed.store(false);
  return ok;
}

}  // namespace snapshot
}  // namespace bitspread
