let () =
  Alcotest.run "lrcex"
    [ Test_bitset.suite;
      Test_bucket_queue.suite;
      Test_spec.suite;
      Test_analysis.suite;
      Test_lr0.suite;
      Test_lalr.suite;
      Test_parse_table.suite;
      Test_lr1.suite;
      Test_runner.suite;
      Test_earley.suite;
      Test_lookahead_path.suite;
      Test_nonunifying.suite;
      Test_unifying.suite;
      Test_report.suite;
      Test_lint.suite;
      Test_driver.suite;
      Test_session.suite;
      Test_srwalk.suite;
      Test_service.suite;
      Test_serve.suite;
      Test_validate.suite;
      Test_baselines.suite;
      Test_corpus.suite;
      Test_export.suite;
      Test_equivalence.suite ]
