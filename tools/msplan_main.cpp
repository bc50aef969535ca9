// msplan — command-line front end for the parallelism-plan auto-tuner.
//
//   msplan --model 175b --gpus 12288 --batch 6144
//   msplan --model 530b --gpus 3360 --batch 2048 --json plans.jsonl
//
// ms-lint: allow-file(test-coverage): thin CLI shim; all command logic is
// in src/plan/plan_cli.cpp, exercised by tests/plan_test.cpp.
#include <iostream>
#include <string>
#include <vector>

#include "plan/plan_cli.h"

int main(int argc, char** argv) {
  return ms::plan::msplan_main({argv + 1, argv + argc}, std::cout,
                               std::cerr);
}
