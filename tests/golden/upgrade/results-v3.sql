BEGIN TRANSACTION;
CREATE TABLE apps (
    package TEXT PRIMARY KEY,
    category TEXT,
    installs INTEGER NOT NULL DEFAULT 0
) WITHOUT ROWID;
INSERT INTO "apps" VALUES('app.epicmarket.app393','Casual',10000000);
INSERT INTO "apps" VALUES('co.happyplayer.app257','Lifestyle',50000000);
INSERT INTO "apps" VALUES('co.happyrunner.app80','Entertainment',100000000);
INSERT INTO "apps" VALUES('co.pixelplanner.app129','Casual',100000000);
INSERT INTO "apps" VALUES('co.primemarket.app292','Education',50000000);
INSERT INTO "apps" VALUES('co.superquest.app73','Action',100000000);
INSERT INTO "apps" VALUES('com.discord','Communication',500000000);
INSERT INTO "apps" VALUES('com.facebook.katana','Social',8400000000);
INSERT INTO "apps" VALUES('com.instagram.android','Social',4600000000);
INSERT INTO "apps" VALUES('com.linkedin.android','Social',1200000000);
INSERT INTO "apps" VALUES('com.luckychat.app70','News & Magazines',100000000);
INSERT INTO "apps" VALUES('com.minicamera.app74','Action',100000000);
INSERT INTO "apps" VALUES('com.pinterest','Social',840000000);
INSERT INTO "apps" VALUES('com.pixelracing.app137','Action',100000000);
INSERT INTO "apps" VALUES('com.reddit.frontpage','Social',124000000);
INSERT INTO "apps" VALUES('com.snapchat.android','Social',2340000000);
INSERT INTO "apps" VALUES('com.turbosaga.app212','Photography',50000000);
INSERT INTO "apps" VALUES('com.twitter.android','Social',1380000000);
INSERT INTO "apps" VALUES('in.mohalla.video','Social',289000000);
INSERT INTO "apps" VALUES('io.chingari.app','Social',97500000);
INSERT INTO "apps" VALUES('io.pixelradio.app301','Productivity',50000000);
INSERT INTO "apps" VALUES('kik.android','Communication',176500000);
INSERT INTO "apps" VALUES('net.dailyrunner.app381','Health & Fitness',10000000);
INSERT INTO "apps" VALUES('net.happyplayer.app243','Music & Audio',50000000);
INSERT INTO "apps" VALUES('net.megaradio.app364','Productivity',10000000);
CREATE TABLE bridge_findings (
    ingest_seq INTEGER NOT NULL,
    position INTEGER NOT NULL,
    app TEXT NOT NULL,
    package TEXT NOT NULL,
    sdk TEXT NOT NULL,
    bridge TEXT NOT NULL,
    attacker TEXT NOT NULL,
    severity TEXT NOT NULL,
    severity_rank INTEGER NOT NULL DEFAULT 0,
    readable TEXT NOT NULL DEFAULT '',
    invocable TEXT NOT NULL DEFAULT '',
    flows INTEGER NOT NULL DEFAULT 0,
    cleartext INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, position)
);
CREATE TABLE crawl_visits (
    ingest_seq INTEGER NOT NULL,
    app TEXT NOT NULL,
    site TEXT NOT NULL,
    site_category TEXT NOT NULL DEFAULT '',
    position INTEGER NOT NULL DEFAULT 0,
    endpoints INTEGER NOT NULL DEFAULT 0,
    app_specific INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, app, site)
);
CREATE TABLE endpoints (
    ingest_seq INTEGER NOT NULL,
    app TEXT NOT NULL,
    site TEXT NOT NULL,
    host TEXT NOT NULL,
    registrable_domain TEXT NOT NULL DEFAULT '',
    classification TEXT NOT NULL DEFAULT '',
    app_specific INTEGER NOT NULL DEFAULT 0,
    requests INTEGER NOT NULL DEFAULT 0,
    cleartext INTEGER NOT NULL DEFAULT 0,
    has_credentials INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, app, site, host)
);
CREATE TABLE method_calls (
    ingest_seq INTEGER NOT NULL,
    package TEXT NOT NULL,
    method TEXT NOT NULL,
    via_sdk INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, package, method)
);
INSERT INTO "method_calls" VALUES(1,'app.epicmarket.app393','addJavascriptInterface',1);
INSERT INTO "method_calls" VALUES(1,'app.epicmarket.app393','loadDataWithBaseURL',1);
INSERT INTO "method_calls" VALUES(1,'app.epicmarket.app393','loadUrl',1);
INSERT INTO "method_calls" VALUES(1,'app.epicmarket.app393','removeJavascriptInterface',1);
INSERT INTO "method_calls" VALUES(1,'co.pixelplanner.app129','addJavascriptInterface',0);
INSERT INTO "method_calls" VALUES(1,'co.pixelplanner.app129','loadDataWithBaseURL',0);
INSERT INTO "method_calls" VALUES(1,'co.pixelplanner.app129','loadUrl',0);
INSERT INTO "method_calls" VALUES(1,'com.discord','loadUrl',1);
INSERT INTO "method_calls" VALUES(1,'com.facebook.katana','loadUrl',1);
INSERT INTO "method_calls" VALUES(1,'com.luckychat.app70','loadUrl',1);
INSERT INTO "method_calls" VALUES(1,'com.pinterest','addJavascriptInterface',0);
INSERT INTO "method_calls" VALUES(1,'com.pinterest','loadDataWithBaseURL',0);
INSERT INTO "method_calls" VALUES(1,'com.pinterest','loadUrl',0);
INSERT INTO "method_calls" VALUES(1,'com.pinterest','removeJavascriptInterface',0);
INSERT INTO "method_calls" VALUES(1,'com.pixelracing.app137','addJavascriptInterface',1);
INSERT INTO "method_calls" VALUES(1,'com.pixelracing.app137','evaluateJavascript',1);
INSERT INTO "method_calls" VALUES(1,'com.pixelracing.app137','loadDataWithBaseURL',1);
INSERT INTO "method_calls" VALUES(1,'com.pixelracing.app137','loadUrl',1);
INSERT INTO "method_calls" VALUES(1,'com.pixelracing.app137','removeJavascriptInterface',1);
INSERT INTO "method_calls" VALUES(1,'com.reddit.frontpage','loadDataWithBaseURL',0);
INSERT INTO "method_calls" VALUES(1,'com.reddit.frontpage','loadUrl',0);
INSERT INTO "method_calls" VALUES(1,'com.reddit.frontpage','removeJavascriptInterface',0);
INSERT INTO "method_calls" VALUES(1,'com.snapchat.android','evaluateJavascript',1);
INSERT INTO "method_calls" VALUES(1,'com.snapchat.android','loadDataWithBaseURL',1);
INSERT INTO "method_calls" VALUES(1,'com.snapchat.android','loadUrl',1);
INSERT INTO "method_calls" VALUES(1,'com.turbosaga.app212','loadDataWithBaseURL',1);
INSERT INTO "method_calls" VALUES(1,'com.turbosaga.app212','loadUrl',1);
INSERT INTO "method_calls" VALUES(1,'in.mohalla.video','evaluateJavascript',1);
INSERT INTO "method_calls" VALUES(1,'in.mohalla.video','loadDataWithBaseURL',1);
INSERT INTO "method_calls" VALUES(1,'in.mohalla.video','loadUrl',1);
INSERT INTO "method_calls" VALUES(1,'in.mohalla.video','postUrl',1);
INSERT INTO "method_calls" VALUES(1,'in.mohalla.video','removeJavascriptInterface',1);
INSERT INTO "method_calls" VALUES(1,'io.pixelradio.app301','addJavascriptInterface',1);
INSERT INTO "method_calls" VALUES(1,'io.pixelradio.app301','evaluateJavascript',1);
INSERT INTO "method_calls" VALUES(1,'io.pixelradio.app301','loadUrl',1);
INSERT INTO "method_calls" VALUES(1,'io.pixelradio.app301','removeJavascriptInterface',1);
INSERT INTO "method_calls" VALUES(1,'kik.android','addJavascriptInterface',1);
INSERT INTO "method_calls" VALUES(1,'kik.android','evaluateJavascript',1);
INSERT INTO "method_calls" VALUES(1,'kik.android','loadDataWithBaseURL',1);
INSERT INTO "method_calls" VALUES(1,'kik.android','loadUrl',1);
INSERT INTO "method_calls" VALUES(1,'kik.android','postUrl',1);
INSERT INTO "method_calls" VALUES(1,'net.happyplayer.app243','evaluateJavascript',0);
INSERT INTO "method_calls" VALUES(1,'net.happyplayer.app243','loadData',0);
INSERT INTO "method_calls" VALUES(1,'net.happyplayer.app243','loadUrl',0);
INSERT INTO "method_calls" VALUES(1,'net.happyplayer.app243','removeJavascriptInterface',0);
INSERT INTO "method_calls" VALUES(1,'net.megaradio.app364','addJavascriptInterface',0);
INSERT INTO "method_calls" VALUES(1,'net.megaradio.app364','evaluateJavascript',0);
INSERT INTO "method_calls" VALUES(1,'net.megaradio.app364','loadDataWithBaseURL',0);
INSERT INTO "method_calls" VALUES(1,'net.megaradio.app364','loadUrl',0);
INSERT INTO "method_calls" VALUES(1,'net.megaradio.app364','postUrl',0);
CREATE TABLE outcomes (
    ingest_seq INTEGER NOT NULL,
    package TEXT NOT NULL,
    sha256 TEXT NOT NULL DEFAULT '',
    failed INTEGER NOT NULL DEFAULT 0,
    error TEXT,
    uses_webview INTEGER NOT NULL DEFAULT 0,
    uses_customtabs INTEGER NOT NULL DEFAULT 0,
    grade TEXT NOT NULL DEFAULT '',
    exposes_js_bridge INTEGER NOT NULL DEFAULT 0,
    can_inject_js INTEGER NOT NULL DEFAULT 0,
    first_party_only INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, package)
);
INSERT INTO "outcomes" VALUES(1,'app.epicmarket.app393','cbe054b898412ab1de7416cb1959be4dbfcf1c2896f96c21e9d987588d267c8b',0,NULL,1,0,'D',1,0,0);
INSERT INTO "outcomes" VALUES(1,'co.happyplayer.app257','c2678836f518d8551363106ee104781987618955e7ef2b39b1c38a27ed9798d4',0,NULL,0,0,'A',0,0,0);
INSERT INTO "outcomes" VALUES(1,'co.happyrunner.app80','44e08dc82ae401b70a7ef50767cc0c6ca828d17ff7522fa8ad85c5e6e2e5f7e8',0,NULL,0,0,'A',0,0,0);
INSERT INTO "outcomes" VALUES(1,'co.pixelplanner.app129','4a9738676ec4e19766c9e7a1f8cd8f6978b3904834f7ffe907a732366143a039',0,NULL,1,0,'B',1,0,1);
INSERT INTO "outcomes" VALUES(1,'co.primemarket.app292','5d4dcde0a5db6853bed52a816ff58956b0281f014b299fe81ca194ef31fcc319',0,NULL,0,0,'A',0,0,0);
INSERT INTO "outcomes" VALUES(1,'co.superquest.app73','52ea1dba9bfc7b11a7a83b05a9a08af0c5ea0f689159d46eeaa1a3d86ea982d6',0,NULL,0,0,'A',0,0,0);
INSERT INTO "outcomes" VALUES(1,'com.discord','22bcb5819e5d788623746db5832ca7261875d8b3f8d6e966cb117763f89a918e',0,NULL,1,1,'C',0,0,0);
INSERT INTO "outcomes" VALUES(1,'com.facebook.katana','fdeda3a6e701d0953a5041856130d8000b7f1381fb6e013f56fbd4473fd59dc6',0,NULL,1,1,'C',0,0,0);
INSERT INTO "outcomes" VALUES(1,'com.instagram.android','4576faa3433e08219af0c67882da152a52da0b8298c6928d25e3264549be1b8f',0,NULL,0,0,'A',0,0,0);
INSERT INTO "outcomes" VALUES(1,'com.linkedin.android','67205bf2e2ddbfc150bb9113dd3c9ba1a2499d646a05733a9268fd91955f389b',0,NULL,0,0,'A',0,0,0);
INSERT INTO "outcomes" VALUES(1,'com.luckychat.app70','d364644b16b041d62207c5aa2b24375138524458732da00586e5c5ba203d897f',0,NULL,1,1,'C',0,0,0);
INSERT INTO "outcomes" VALUES(1,'com.minicamera.app74','157758312c4990127a09426b2482fbed04ca3331569eead66a684ed6321b4bb4',0,NULL,0,0,'A',0,0,0);
INSERT INTO "outcomes" VALUES(1,'com.pinterest','77dc891308dd65c6a17f6c98eb0c13cd2bc46c600715509f07a3487c5fdb6436',0,NULL,1,0,'B',1,0,1);
INSERT INTO "outcomes" VALUES(1,'com.pixelracing.app137','7d91a2e2f6f850c0c31373d41d8b693a7aa6f9ab1d8c7fbae2619f443a26ec90',0,NULL,1,0,'D',1,1,0);
INSERT INTO "outcomes" VALUES(1,'com.reddit.frontpage','2682a7d51797ea06e2174bf51e05804066582dd0026e1009a9f8c2dc2379327b',0,NULL,1,0,'B',0,0,1);
INSERT INTO "outcomes" VALUES(1,'com.snapchat.android','9699462a91885ba37cc2d70e4b341b33e9dbca940708ff5248d2c5558502091c',0,NULL,1,0,'D',0,1,0);
INSERT INTO "outcomes" VALUES(1,'com.turbosaga.app212','74e4be4ec335fc3b502efa1cb386d96cea497e22c34282a80bbef43a35355d6e',0,NULL,1,1,'C',0,0,0);
INSERT INTO "outcomes" VALUES(1,'com.twitter.android','a33a3bcc52a1a2c6738ba08675c4f18ccc97a98cf690fadce5f44ff0c200a65f',0,NULL,0,0,'A',0,0,0);
INSERT INTO "outcomes" VALUES(1,'in.mohalla.video','b4b767a31b2a995971b3eab94988e75e8402d0f3fac932aa71411fe65e37099a',0,NULL,1,0,'D',0,1,0);
INSERT INTO "outcomes" VALUES(1,'io.chingari.app','b2f4833448d783a9773b9ab6f14f25de151defa47c39d6f4ebed4dddfffa9bb3',0,NULL,0,0,'A',0,0,0);
INSERT INTO "outcomes" VALUES(1,'io.pixelradio.app301','31fdf741acdf7bd2fabd7e91392835f8b10d7c7a4d2b62b144f520b9522669eb',0,NULL,1,0,'D',1,1,0);
INSERT INTO "outcomes" VALUES(1,'kik.android','4b1bfaff93483c7d9e5d80f6790b5e22b8dad7fb730fc14bf690747b72d2e561',0,NULL,1,1,'F',1,1,0);
INSERT INTO "outcomes" VALUES(1,'net.dailyrunner.app381','f6fd928d9b6281fe1bd8e25a12be52f7cfe61a4e96bf71868268192512a480da',0,NULL,0,0,'A',0,0,0);
INSERT INTO "outcomes" VALUES(1,'net.happyplayer.app243','51615403f8f0fcf563983754b535d91c8fc3cec65ee51ac1c9a772983598ddf4',0,NULL,1,0,'B',0,1,1);
INSERT INTO "outcomes" VALUES(1,'net.megaradio.app364','26f5ec60b74c507015f9ed4b1944bbc1ab48e1be7896d2f8b62cc089300a43e3',0,NULL,1,0,'B',1,1,1);
CREATE TABLE schema_info (
    version INTEGER NOT NULL
);
INSERT INTO "schema_info" VALUES(3);
CREATE TABLE sdk_labels (
    ingest_seq INTEGER NOT NULL,
    package TEXT NOT NULL,
    mechanism TEXT NOT NULL,
    sdk TEXT NOT NULL,
    sdk_category TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (ingest_seq, package, mechanism, sdk)
);
INSERT INTO "sdk_labels" VALUES(1,'app.epicmarket.app393','webview','SafeDK','Engagement');
INSERT INTO "sdk_labels" VALUES(1,'app.epicmarket.app393','webview','AppLovin','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'com.discord','webview','SafeDK','Engagement');
INSERT INTO "sdk_labels" VALUES(1,'com.discord','customtabs','Facebook','Social');
INSERT INTO "sdk_labels" VALUES(1,'com.facebook.katana','webview','InMobi','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'com.facebook.katana','customtabs','Facebook','Social');
INSERT INTO "sdk_labels" VALUES(1,'com.luckychat.app70','webview','AppLovin','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'com.luckychat.app70','customtabs','Facebook','Social');
INSERT INTO "sdk_labels" VALUES(1,'com.pixelracing.app137','webview','Engagement SDK 6','Engagement');
INSERT INTO "sdk_labels" VALUES(1,'com.pixelracing.app137','webview','AppLovin','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'com.pixelracing.app137','webview','ironSource','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'com.snapchat.android','webview','SafeDK','Engagement');
INSERT INTO "sdk_labels" VALUES(1,'com.turbosaga.app212','webview','ByteDance','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'com.turbosaga.app212','customtabs','Google Firebase','Authentication');
INSERT INTO "sdk_labels" VALUES(1,'in.mohalla.video','webview','Development Tools SDK 1','Development Tools');
INSERT INTO "sdk_labels" VALUES(1,'in.mohalla.video','webview','InMobi','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'in.mohalla.video','webview','ByteDance','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'io.pixelradio.app301','webview','Digital Turbine','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'io.pixelradio.app301','webview','ByteDance','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'kik.android','webview','InMobi','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'kik.android','webview','Payments SDK 7','Payments');
INSERT INTO "sdk_labels" VALUES(1,'kik.android','webview','Digital Turbine','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'kik.android','webview','ironSource','Advertising');
INSERT INTO "sdk_labels" VALUES(1,'kik.android','customtabs','Facebook','Social');
CREATE TABLE snapshots (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    ingest_id TEXT UNIQUE,
    kind TEXT NOT NULL,
    corpus TEXT NOT NULL DEFAULT '',
    options TEXT NOT NULL DEFAULT '',
    snapshot TEXT NOT NULL DEFAULT '',
    git TEXT NOT NULL DEFAULT '',
    items INTEGER NOT NULL DEFAULT 0,
    funnel TEXT NOT NULL DEFAULT '{}'
);
INSERT INTO "snapshots" VALUES(1,'static-000001','static','38692d9d9cf848f7','85cd4a92','2023-01-13','1bcf598',25,'{"androzoo_play_apps": 500, "found_on_play": 232, "successfully_analyzed": 25, "updated_after_2021": 25, "with_100k_downloads": 30}');
INSERT INTO "snapshots" VALUES(2,'webapi-000002','webapi','','','seed-7','1bcf598',1,'{}');
CREATE TABLE static_endpoints (
    ingest_seq INTEGER NOT NULL,
    position INTEGER NOT NULL,
    app TEXT NOT NULL,
    source TEXT NOT NULL,
    url TEXT NOT NULL,
    sdk TEXT NOT NULL DEFAULT '',
    partial INTEGER NOT NULL DEFAULT 0,
    cleartext INTEGER NOT NULL DEFAULT 0,
    has_credentials INTEGER NOT NULL DEFAULT 0,
    host TEXT NOT NULL DEFAULT '',
    registrable_domain TEXT NOT NULL DEFAULT '',
    validated INTEGER NOT NULL DEFAULT 0,
    matched INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, position)
);
CREATE TABLE webapi_events (
    ingest_seq INTEGER NOT NULL,
    app TEXT NOT NULL,
    interface TEXT NOT NULL,
    method TEXT NOT NULL,
    calls INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, app, interface, method)
);
INSERT INTO "webapi_events" VALUES(2,'Kik','Document','cookie',1);
INSERT INTO "webapi_events" VALUES(2,'Kik','Navigator','userAgent',2);
CREATE UNIQUE INDEX snapshots_key
    ON snapshots (kind, corpus, options, snapshot);
CREATE INDEX outcomes_by_package
    ON outcomes (package, ingest_seq);
CREATE INDEX sdk_labels_by_ingest
    ON sdk_labels (ingest_seq, mechanism, sdk);
CREATE INDEX endpoints_by_domain
    ON endpoints (ingest_seq, registrable_domain);
CREATE INDEX bridge_findings_by_sdk
    ON bridge_findings (ingest_seq, sdk, severity_rank);
CREATE INDEX static_endpoints_by_sdk
    ON static_endpoints (ingest_seq, source, sdk);
DELETE FROM "sqlite_sequence";
INSERT INTO "sqlite_sequence" VALUES('snapshots',2);
COMMIT;
