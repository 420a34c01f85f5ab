#include "workflow/notebook.hpp"

#include <stdexcept>

#include "util/binio.hpp"

namespace autolearn::workflow {

const char* to_string(CellStatus s) {
  switch (s) {
    case CellStatus::NotRun: return "not-run";
    case CellStatus::Ok: return "ok";
    case CellStatus::Error: return "error";
  }
  return "?";
}

Notebook::Notebook(std::string title) : title_(std::move(title)) {}

std::size_t Notebook::add_cell(std::string label,
                               std::function<std::string()> body) {
  if (!body) throw std::invalid_argument("notebook: empty cell body");
  Cell cell;
  cell.label = std::move(label);
  cell.body = std::move(body);
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

const Cell& Notebook::cell(std::size_t index) const {
  if (index >= cells_.size()) {
    throw std::out_of_range("notebook: bad cell index");
  }
  return cells_[index];
}

bool Notebook::run_cell(std::size_t index) {
  if (index >= cells_.size()) {
    throw std::out_of_range("notebook: bad cell index");
  }
  Cell& c = cells_[index];
  const std::uint64_t span =
      tracer_ ? tracer_->begin("workflow.cell", "workflow") : 0;
  const auto close_span = [&] {
    if (!tracer_) return;
    util::Json args = util::Json::object();
    args.set("notebook", util::Json(title_));
    args.set("cell", util::Json(c.label));
    args.set("status", util::Json(to_string(c.status)));
    tracer_->end(span, std::move(args));
  };
  try {
    c.output = c.body();
    c.status = CellStatus::Ok;
    close_span();
    if (metrics_) metrics_->counter("workflow.cells_ok").inc();
    if (on_success_) on_success_(c);
    return true;
  } catch (const std::exception& e) {
    c.output = std::string("error: ") + e.what();
    c.status = CellStatus::Error;
    close_span();
    if (metrics_) metrics_->counter("workflow.cells_error").inc();
    return false;
  }
}

std::size_t Notebook::run_all() {
  if (ckpt_store_) {
    restored_cells_.clear();
    ckpt::restore_checkpoint(*ckpt_store_, ckpt_key_, *this);
  }
  std::size_t ok = 0;
  bool prefix_intact = true;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (prefix_intact && i < restored_cells_.size() &&
        restored_cells_[i].first == cells_[i].label) {
      // This cell completed in a previous (preempted) run: replay its
      // recorded output instead of re-executing the body.
      cells_[i].status = CellStatus::Ok;
      cells_[i].output = restored_cells_[i].second;
      ++cells_skipped_;
      ++ok;
      if (tracer_) {
        util::Json args = util::Json::object();
        args.set("notebook", util::Json(title_));
        args.set("cell", util::Json(cells_[i].label));
        tracer_->instant("workflow.cell_skipped", "workflow",
                         std::move(args));
      }
      if (metrics_) metrics_->counter("workflow.cells_skipped").inc();
      continue;
    }
    prefix_intact = false;  // only a leading, label-matching run is trusted
    if (!run_cell(i)) break;
    ++ok;
    if (ckpt_store_) checkpoint_progress();
  }
  return ok;
}

void Notebook::enable_checkpoints(ckpt::CheckpointStore& store,
                                  std::string key) {
  if (key.empty()) throw std::invalid_argument("notebook: empty ckpt key");
  ckpt_store_ = &store;
  ckpt_key_ = std::move(key);
}

void Notebook::checkpoint_progress() {
  ckpt::CheckpointInfo info;
  std::size_t done = 0;
  while (done < cells_.size() && cells_[done].status == CellStatus::Ok) {
    ++done;
  }
  info.step = done;
  info.note = std::string(checkpoint_kind()) + ":" + title_;
  ckpt::save_checkpoint(*ckpt_store_, ckpt_key_, *this, info);
}

void Notebook::save_state(std::ostream& os) {
  // Only the leading run of Ok cells is durable: run_all executes in
  // order, so a later Ok after a failure cannot be trusted as "done".
  std::size_t done = 0;
  while (done < cells_.size() && cells_[done].status == CellStatus::Ok) {
    ++done;
  }
  util::write_string(os, title_);
  util::write_pod(os, static_cast<std::uint64_t>(done));
  for (std::size_t i = 0; i < done; ++i) {
    util::write_string(os, cells_[i].label);
    util::write_string(os, cells_[i].output);
  }
}

void Notebook::load_state(std::istream& is) {
  util::BinReader<ckpt::CheckpointError> r(is, "notebook");
  r.string("title");  // provenance only: cells are matched by label
  const auto done = r.pod<std::uint64_t>("cell count");
  std::vector<std::pair<std::string, std::string>> cells;
  for (std::uint64_t i = 0; i < done; ++i) {
    std::string label = r.string("cell label");
    cells.emplace_back(std::move(label), r.string("cell output"));
  }
  restored_cells_ = std::move(cells);
}

void Notebook::clear_state() {
  for (Cell& c : cells_) {
    c.status = CellStatus::NotRun;
    c.output.clear();
  }
  restored_cells_.clear();
  cells_skipped_ = 0;
}

std::size_t Notebook::cells_ok() const {
  std::size_t n = 0;
  for (const Cell& c : cells_) n += c.status == CellStatus::Ok;
  return n;
}

}  // namespace autolearn::workflow
