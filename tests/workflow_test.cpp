#include "workflow/notebook.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "ckpt/checkpoint.hpp"
#include "objectstore/objectstore.hpp"

namespace autolearn::workflow {
namespace {

TEST(Notebook, AddAndRunSingleCell) {
  Notebook nb("quickstart");
  const auto i = nb.add_cell("hello", [] { return "hi"; });
  EXPECT_EQ(i, 0u);
  EXPECT_EQ(nb.cell(0).status, CellStatus::NotRun);
  EXPECT_TRUE(nb.run_cell(0));
  EXPECT_EQ(nb.cell(0).status, CellStatus::Ok);
  EXPECT_EQ(nb.cell(0).output, "hi");
}

TEST(Notebook, RunAllStopsAtFirstError) {
  Notebook nb("pipeline");
  int third_ran = 0;
  nb.add_cell("ok", [] { return "1"; });
  nb.add_cell("boom", []() -> std::string {
    throw std::runtime_error("lease unavailable");
  });
  nb.add_cell("after", [&]() -> std::string {
    ++third_ran;
    return "3";
  });
  const std::size_t ok = nb.run_all();
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(third_ran, 0);
  EXPECT_EQ(nb.cell(1).status, CellStatus::Error);
  EXPECT_NE(nb.cell(1).output.find("lease unavailable"), std::string::npos);
  EXPECT_EQ(nb.cell(2).status, CellStatus::NotRun);
  EXPECT_FALSE(nb.all_ok());
}

TEST(Notebook, RerunAfterFixSucceeds) {
  Notebook nb("retry");
  bool broken = true;
  nb.add_cell("flaky", [&]() -> std::string {
    if (broken) throw std::runtime_error("transient");
    return "fixed";
  });
  EXPECT_EQ(nb.run_all(), 0u);
  broken = false;
  EXPECT_EQ(nb.run_all(), 1u);
  EXPECT_TRUE(nb.all_ok());
}

TEST(Notebook, ClearStateResets) {
  Notebook nb("reset");
  nb.add_cell("a", [] { return "x"; });
  nb.run_all();
  nb.clear_state();
  EXPECT_EQ(nb.cell(0).status, CellStatus::NotRun);
  EXPECT_TRUE(nb.cell(0).output.empty());
}

TEST(Notebook, SuccessCallbackFires) {
  Notebook nb("metrics");
  int successes = 0;
  nb.set_on_cell_success([&](const Cell&) { ++successes; });
  nb.add_cell("a", [] { return ""; });
  nb.add_cell("b", [] { return ""; });
  nb.run_all();
  EXPECT_EQ(successes, 2);
}

TEST(Notebook, Validation) {
  Notebook nb("v");
  EXPECT_THROW(nb.add_cell("bad", nullptr), std::invalid_argument);
  EXPECT_THROW(nb.run_cell(0), std::out_of_range);
  EXPECT_THROW(nb.cell(0), std::out_of_range);
}

TEST(Notebook, StatusNames) {
  EXPECT_STREQ(to_string(CellStatus::NotRun), "not-run");
  EXPECT_STREQ(to_string(CellStatus::Ok), "ok");
  EXPECT_STREQ(to_string(CellStatus::Error), "error");
}

// --- durable cell checkpoints ----------------------------------------------

TEST(Notebook, RerunSkipsCheckpointedCellsAndReplaysOutputs) {
  objectstore::ObjectStore os;
  ckpt::CheckpointStore store(os);
  {
    Notebook nb("etl");
    nb.enable_checkpoints(store, "nb.etl");
    nb.add_cell("collect", [] { return "42 tubs"; });
    nb.add_cell("train", [] { return "loss 0.01"; });
    EXPECT_EQ(nb.run_all(), 2u);
    EXPECT_EQ(nb.cells_skipped(), 0u);
  }  // the process dies; only the checkpoint store survives

  Notebook nb("etl");
  nb.enable_checkpoints(store, "nb.etl");
  int successes = 0;
  nb.set_on_cell_success([&](const Cell&) { ++successes; });
  int reran = 0;
  nb.add_cell("collect", [&]() -> std::string {
    ++reran;
    return "would-recollect";
  });
  nb.add_cell("train", [&]() -> std::string {
    ++reran;
    return "would-retrain";
  });
  EXPECT_EQ(nb.run_all(), 2u);
  EXPECT_EQ(nb.cells_skipped(), 2u);
  EXPECT_EQ(reran, 0);
  EXPECT_EQ(successes, 0);  // replays are not fresh successes
  // Outputs come back from the checkpoint, not from re-execution.
  EXPECT_EQ(nb.cell(0).output, "42 tubs");
  EXPECT_EQ(nb.cell(1).output, "loss 0.01");
  EXPECT_TRUE(nb.all_ok());
}

TEST(Notebook, ResumesAfterAMidRunFailure) {
  objectstore::ObjectStore os;
  ckpt::CheckpointStore store(os);
  bool lease_dead = true;
  int collected = 0, trained = 0, deployed = 0;
  const auto build = [&](Notebook& nb) {
    nb.enable_checkpoints(store, "nb.pipe");
    nb.add_cell("collect", [&] {
      ++collected;
      return "ok";
    });
    nb.add_cell("train", [&]() -> std::string {
      if (lease_dead) throw std::runtime_error("lease expired");
      ++trained;
      return "fit done";
    });
    nb.add_cell("deploy", [&] {
      ++deployed;
      return "published";
    });
  };

  {
    Notebook nb("pipe");
    build(nb);
    EXPECT_EQ(nb.run_all(), 1u);  // collect lands, train dies
  }

  lease_dead = false;
  Notebook nb("pipe");
  build(nb);
  EXPECT_EQ(nb.run_all(), 3u);
  EXPECT_EQ(nb.cells_skipped(), 1u);  // collect was not re-executed
  EXPECT_EQ(collected, 1);
  EXPECT_EQ(trained, 1);
  EXPECT_EQ(deployed, 1);
  EXPECT_TRUE(nb.all_ok());
}

TEST(Notebook, MismatchedCellLabelsAreNotTrusted) {
  objectstore::ObjectStore os;
  ckpt::CheckpointStore store(os);
  {
    Notebook nb("pipe");
    nb.enable_checkpoints(store, "nb.pipe");
    nb.add_cell("collect", [] { return "old"; });
    nb.add_cell("train", [] { return "old"; });
    EXPECT_EQ(nb.run_all(), 2u);
  }

  // The notebook was edited: the first cell changed identity, so the
  // whole recorded prefix is stale and must re-execute.
  Notebook nb("pipe");
  nb.enable_checkpoints(store, "nb.pipe");
  int reran = 0;
  nb.add_cell("collect-v2", [&] {
    ++reran;
    return "new";
  });
  nb.add_cell("train", [&] {
    ++reran;
    return "new";
  });
  EXPECT_EQ(nb.run_all(), 2u);
  EXPECT_EQ(nb.cells_skipped(), 0u);
  EXPECT_EQ(reran, 2);
  EXPECT_EQ(nb.cell(1).output, "new");
}

TEST(Notebook, CheckpointValidation) {
  objectstore::ObjectStore os;
  ckpt::CheckpointStore store(os);
  Notebook nb("v");
  EXPECT_THROW(nb.enable_checkpoints(store, ""), std::invalid_argument);

  nb.add_cell("collect", [] { return "rows"; });
  EXPECT_EQ(nb.run_all(), 1u);
  std::ostringstream state;
  nb.save_state(state);
  std::istringstream cut(state.str().substr(0, state.str().size() - 1));
  EXPECT_THROW(nb.load_state(cut), ckpt::CheckpointError);
}

}  // namespace
}  // namespace autolearn::workflow
