BEGIN TRANSACTION;
CREATE TABLE bench_payloads (
    run_seq INTEGER NOT NULL,
    name TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_seq, name)
);
INSERT INTO "bench_payloads" VALUES(3,'table2','{"analyzed": 2, "benchmark": "table2"}');
CREATE TABLE registries (
    run_seq INTEGER PRIMARY KEY,
    snapshot TEXT NOT NULL
);
INSERT INTO "registries" VALUES(1,'{"metrics": [{"help": "Apps analyzed.", "kind": "counter", "labelnames": [], "name": "repro_apps_total", "samples": [{"labels": {}, "value": 2.0}]}, {"help": "Finished spans, by span name.", "kind": "counter", "labelnames": ["stage"], "name": "repro_stage_calls_total", "samples": [{"labels": {"stage": "analyze_app"}, "value": 2.0}, {"labels": {"stage": "execute"}, "value": 1.0}, {"labels": {"stage": "list"}, "value": 1.0}, {"labels": {"stage": "run"}, "value": 1.0}]}, {"help": "Total clock units spent inside spans, by span name.", "kind": "counter", "labelnames": ["stage"], "name": "repro_stage_seconds_total", "samples": [{"labels": {"stage": "analyze_app"}, "value": 0.002}, {"labels": {"stage": "execute"}, "value": 0.005}, {"labels": {"stage": "list"}, "value": 0.001}, {"labels": {"stage": "run"}, "value": 0.009000000000000001}]}]}');
INSERT INTO "registries" VALUES(2,'{"metrics": [{"help": "Apps analyzed.", "kind": "counter", "labelnames": [], "name": "repro_apps_total", "samples": [{"labels": {}, "value": 2.0}]}, {"help": "Finished spans, by span name.", "kind": "counter", "labelnames": ["stage"], "name": "repro_stage_calls_total", "samples": [{"labels": {"stage": "analyze_app"}, "value": 2.0}, {"labels": {"stage": "execute"}, "value": 1.0}, {"labels": {"stage": "list"}, "value": 1.0}, {"labels": {"stage": "run"}, "value": 1.0}]}, {"help": "Total clock units spent inside spans, by span name.", "kind": "counter", "labelnames": ["stage"], "name": "repro_stage_seconds_total", "samples": [{"labels": {"stage": "analyze_app"}, "value": 0.002}, {"labels": {"stage": "execute"}, "value": 0.005}, {"labels": {"stage": "list"}, "value": 0.001}, {"labels": {"stage": "run"}, "value": 0.009000000000000001}]}]}');
CREATE TABLE runs (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id TEXT UNIQUE,
    kind TEXT NOT NULL,
    label TEXT NOT NULL DEFAULT '',
    corpus TEXT NOT NULL DEFAULT '',
    options TEXT NOT NULL DEFAULT '',
    git TEXT NOT NULL DEFAULT '',
    items INTEGER NOT NULL DEFAULT 0,
    elapsed REAL NOT NULL DEFAULT 0.0
);
INSERT INTO "runs" VALUES(1,'static-000001','static','','abc','def','1bcf598',2,9.00000000000000105471e-03);
INSERT INTO "runs" VALUES(2,'longitudinal-000002','longitudinal','2023-04-13','abc','def','1bcf598',2,9.00000000000000105471e-03);
INSERT INTO "runs" VALUES(3,'bench-000003','bench','table2','','','1bcf598',0,0.0);
CREATE TABLE schema_info (
    version INTEGER NOT NULL
);
INSERT INTO "schema_info" VALUES(1);
CREATE TABLE traces (
    run_seq INTEGER NOT NULL,
    position INTEGER NOT NULL,
    tree TEXT NOT NULL,
    PRIMARY KEY (run_seq, position)
);
INSERT INTO "traces" VALUES(1,0,'{"children": [{"duration": 0.001, "end": 0.002, "name": "list", "start": 0.001, "status": "ok"}, {"children": [{"attributes": {"package": "com.a"}, "duration": 0.001, "end": 0.005, "name": "analyze_app", "start": 0.004, "status": "ok"}, {"attributes": {"package": "com.b"}, "duration": 0.001, "end": 0.007, "name": "analyze_app", "start": 0.006, "status": "ok"}], "duration": 0.005, "end": 0.008, "name": "execute", "start": 0.003, "status": "ok"}], "duration": 0.009000000000000001, "end": 0.009000000000000001, "name": "run", "start": 0.0, "status": "ok"}');
INSERT INTO "traces" VALUES(2,0,'{"children": [{"duration": 0.001, "end": 0.002, "name": "list", "start": 0.001, "status": "ok"}, {"children": [{"attributes": {"package": "com.a"}, "duration": 0.001, "end": 0.005, "name": "analyze_app", "start": 0.004, "status": "ok"}, {"attributes": {"package": "com.b"}, "duration": 0.001, "end": 0.007, "name": "analyze_app", "start": 0.006, "status": "ok"}], "duration": 0.005, "end": 0.008, "name": "execute", "start": 0.003, "status": "ok"}], "duration": 0.009000000000000001, "end": 0.009000000000000001, "name": "run", "start": 0.0, "status": "ok"}');
CREATE INDEX runs_by_key
    ON runs (kind, corpus, options, seq);
DELETE FROM "sqlite_sequence";
INSERT INTO "sqlite_sequence" VALUES('runs',3);
COMMIT;
