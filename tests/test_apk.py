"""Tests for the APK container and the from-scratch ZIP substrate."""

import io
import zipfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.apk import ApkBuilder, ZipReader, ZipWriter, read_apk
from repro.apk.container import (
    DEX_ENTRY,
    MANIFEST_ENTRY,
    SIGNATURE_ENTRY,
    write_apk,
)
from repro.apk.zipio import STORED
from repro.android import IntentFilter
from repro.android.components import CATEGORY_BROWSABLE, ACTION_VIEW
from repro.dex import ClassBuilder
from repro.errors import ApkError, BrokenApkError


class TestZipRoundtrip:
    def test_single_entry(self):
        writer = ZipWriter()
        writer.add("hello.txt", b"hello world")
        reader = ZipReader(writer.getvalue())
        assert reader.namelist() == ["hello.txt"]
        assert reader.read("hello.txt") == b"hello world"

    def test_stored_entry(self):
        writer = ZipWriter()
        writer.add("raw.bin", b"\x00\x01\x02", method=STORED)
        reader = ZipReader(writer.getvalue())
        assert reader.read("raw.bin") == b"\x00\x01\x02"

    def test_string_data_encoded(self):
        writer = ZipWriter()
        writer.add("a.txt", "text")
        assert ZipReader(writer.getvalue()).read("a.txt") == b"text"

    def test_missing_entry_raises(self):
        writer = ZipWriter()
        writer.add("a", b"x")
        reader = ZipReader(writer.getvalue())
        with pytest.raises(ApkError):
            reader.read("missing")

    def test_not_a_zip_raises(self):
        with pytest.raises(ApkError):
            ZipReader(b"definitely not a zip archive")

    def test_contains(self):
        writer = ZipWriter()
        writer.add("x", b"1")
        reader = ZipReader(writer.getvalue())
        assert "x" in reader
        assert "y" not in reader

    def test_interoperates_with_stdlib_zipfile(self):
        """Our output must be a real ZIP readable by the standard library."""
        writer = ZipWriter()
        writer.add("classes.dex", b"\xde\xad\xbe\xef" * 100)
        writer.add("res/a.txt", b"resource")
        data = writer.getvalue()
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            assert set(zf.namelist()) == {"classes.dex", "res/a.txt"}
            assert zf.read("classes.dex") == b"\xde\xad\xbe\xef" * 100
            assert zf.read("res/a.txt") == b"resource"

    def test_reads_stdlib_zipfile_output(self):
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr("x.txt", b"made by stdlib")
        reader = ZipReader(buffer.getvalue())
        assert reader.read("x.txt") == b"made by stdlib"

    def test_crc_corruption_detected(self):
        writer = ZipWriter()
        writer.add("f", b"A" * 1000, method=STORED)
        data = bytearray(writer.getvalue())
        # Flip a byte inside the stored payload.
        position = data.find(b"A" * 10)
        data[position] = ord("B")
        reader = ZipReader(bytes(data))
        with pytest.raises(ApkError):
            reader.read("f")

    @given(st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9/_.]{0,20}", fullmatch=True),
        st.binary(max_size=500),
        max_size=8,
    ))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, entries):
        writer = ZipWriter()
        for name, data in entries.items():
            writer.add(name, data)
        reader = ZipReader(writer.getvalue())
        assert set(reader.namelist()) == set(entries)
        for name, data in entries.items():
            assert reader.read(name) == data


def build_sample_apk():
    builder = ApkBuilder("com.example.demo", version_code=7)
    builder.manifest.add_activity(
        "com.example.demo.MainActivity", exported=True,
        intent_filters=[IntentFilter(
            actions=["android.intent.action.MAIN"],
            categories=["android.intent.category.LAUNCHER"],
        )],
    )
    cls = ClassBuilder("com.example.demo.MainActivity",
                       superclass="android.app.Activity")
    cls.method("onCreate", "(android.os.Bundle)void").return_void()
    builder.add_class(cls.build())
    builder.resources["layout/main.xml"] = b"<layout/>"
    return builder


class TestApkContainer:
    def test_roundtrip(self):
        data = build_sample_apk().build_bytes()
        apk = read_apk(data)
        assert apk.package == "com.example.demo"
        assert apk.version_code == 7
        assert len(apk.dex) == 1
        assert apk.resources["layout/main.xml"] == b"<layout/>"
        assert apk.raw_size == len(data)

    def test_duplicate_class_rejected(self):
        builder = build_sample_apk()
        duplicate = ClassBuilder("com.example.demo.MainActivity").build()
        with pytest.raises(ApkError):
            builder.add_class(duplicate)

    def test_missing_dex_is_broken(self):
        writer = ZipWriter()
        writer.add(MANIFEST_ENTRY, b"junk")
        with pytest.raises(BrokenApkError):
            read_apk(writer.getvalue())

    def test_missing_manifest_is_broken(self):
        writer = ZipWriter()
        writer.add(DEX_ENTRY, b"junk")
        with pytest.raises(BrokenApkError):
            read_apk(writer.getvalue())

    def test_garbage_is_broken(self):
        with pytest.raises(BrokenApkError):
            read_apk(b"garbage bytes that are not an apk")

    def test_undecodable_manifest_is_broken(self):
        writer = ZipWriter()
        writer.add(MANIFEST_ENTRY, b"not axml")
        writer.add(DEX_ENTRY, b"not dex")
        with pytest.raises(BrokenApkError):
            read_apk(writer.getvalue())

    def test_signature_tamper_detected(self):
        builder = build_sample_apk()
        data = builder.build_bytes()
        apk = read_apk(data)  # sanity
        assert apk.package == "com.example.demo"
        # Rebuild the archive with a modified dex but the original signature.
        reader = ZipReader(data)
        writer = ZipWriter()
        original_dex = reader.read(DEX_ENTRY)
        writer.add(MANIFEST_ENTRY, reader.read(MANIFEST_ENTRY))
        writer.add(DEX_ENTRY, original_dex + b"")
        writer.add(SIGNATURE_ENTRY, b"0" * 64, method=STORED)
        with pytest.raises(BrokenApkError):
            read_apk(writer.getvalue())

    def test_verify_false_skips_signature(self):
        data = build_sample_apk().build_bytes()
        reader = ZipReader(data)
        writer = ZipWriter()
        writer.add(MANIFEST_ENTRY, reader.read(MANIFEST_ENTRY))
        writer.add(DEX_ENTRY, reader.read(DEX_ENTRY))
        writer.add(SIGNATURE_ENTRY, b"0" * 64, method=STORED)
        apk = read_apk(writer.getvalue(), verify=False)
        assert apk.package == "com.example.demo"

    def test_deep_link_activity_survives_roundtrip(self):
        builder = ApkBuilder("com.example.links")
        builder.manifest.add_activity(
            "com.example.links.LinkActivity", exported=True,
            intent_filters=[IntentFilter(
                actions=[ACTION_VIEW],
                categories=[CATEGORY_BROWSABLE],
                schemes=["https"],
                hosts=["example.com"],
            )],
        )
        cls = ClassBuilder("com.example.links.LinkActivity",
                           superclass="android.app.Activity")
        cls.method("onCreate", "(android.os.Bundle)void").return_void()
        builder.add_class(cls.build())
        apk = read_apk(builder.build_bytes())
        deep_links = apk.manifest.deep_link_activities()
        assert [a.name for a in deep_links] == ["com.example.links.LinkActivity"]

    def test_write_apk_deterministic(self):
        a = build_sample_apk().build_bytes()
        b = build_sample_apk().build_bytes()
        assert a == b
