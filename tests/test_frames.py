"""Raw clip container, frame selection, resizing, normalization, clip store."""

from __future__ import annotations

import struct
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fragreel import frames
from fragreel.annotations import ClipRef
from fragreel.catalogue import EventLabel, GameId
from fragreel.errors import DataResolutionError, EmptyClip, MalformedJson, ZeroDimension
from fragreel.frames import (
    ClipStore,
    DecoderSource,
    PreprocessConfig,
    RawClip,
    extract_second,
    normalize,
    preprocess_clip,
    read_rgbc,
    read_rgbc_file,
    resize_bilinear,
    select_frames,
    write_rgbc,
)


def random_clip(frames=8, height=6, width=6, fps=4, seed=0) -> RawClip:
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(frames, height, width, 3), dtype=np.uint8)
    return RawClip(frames=data, fps=Fraction(fps))


class TestRgbcContainer:
    def test_round_trip(self):
        clip = random_clip()
        back = read_rgbc(write_rgbc(clip))
        np.testing.assert_array_equal(back.frames, clip.frames)
        assert back.fps == clip.fps

    def test_file_round_trip(self, tmp_path):
        clip = random_clip(seed=1)
        path = tmp_path / "v.rgbc"
        path.write_bytes(write_rgbc(clip))
        back = read_rgbc_file(path)
        np.testing.assert_array_equal(back.frames, clip.frames)

    def test_duration(self):
        clip = random_clip(frames=10, fps=4)
        assert clip.duration_s == 2.5

    def test_bad_magic_raises(self):
        with pytest.raises(MalformedJson):
            read_rgbc(b"JUNK" + b"\x00" * 24)

    def test_truncated_payload_raises(self):
        blob = write_rgbc(random_clip())
        with pytest.raises(MalformedJson):
            read_rgbc(blob[:-1])

    def test_zero_dimension_raises(self):
        blob = b"RGBC" + struct.pack("<5I", 0, 4, 1, 4, 1)
        with pytest.raises(ZeroDimension):
            read_rgbc(blob)

    def test_zero_fps_raises(self):
        blob = b"RGBC" + struct.pack("<5I", 2, 2, 0, 0, 1)
        with pytest.raises(MalformedJson):
            read_rgbc(blob)

    @pytest.mark.parametrize("extra_frames", [1, -1])
    def test_file_header_must_match_file_size(self, tmp_path, extra_frames):
        blob = write_rgbc(random_clip(frames=8))
        path = tmp_path / "v.rgbc"
        path.write_bytes(blob[:12] + struct.pack("<I", 8 + extra_frames) + blob[16:])
        with pytest.raises(MalformedJson, match="v.rgbc"):
            read_rgbc_file(path)

    def test_non_uint8_frames_rejected(self):
        with pytest.raises(ValueError):
            RawClip(frames=np.zeros((1, 2, 2, 3), dtype=np.float32), fps=Fraction(1))


class TestExtractSecond:
    def test_middle_window(self):
        clip = random_clip(frames=12, fps=4)
        window = extract_second(clip, 1.0)
        np.testing.assert_array_equal(window.frames, clip.frames[4:8])

    def test_clamped_at_end(self):
        clip = random_clip(frames=12, fps=4)
        window = extract_second(clip, 99.0)
        np.testing.assert_array_equal(window.frames, clip.frames[8:12])

    def test_clamped_at_start(self):
        clip = random_clip(frames=12, fps=4)
        window = extract_second(clip, -5.0)
        np.testing.assert_array_equal(window.frames, clip.frames[0:4])

    def test_empty_clip_raises(self):
        clip = RawClip(frames=np.zeros((0, 2, 2, 3), dtype=np.uint8), fps=Fraction(1))
        with pytest.raises(EmptyClip):
            extract_second(clip, 0.0)


class TestSelectFrames:
    def test_exact_count_is_identity(self):
        clip = random_clip(frames=4)
        np.testing.assert_array_equal(select_frames(clip, 4), clip.frames)

    def test_downsample_indices(self):
        clip = random_clip(frames=9)
        # round(i * 8 / 3) for i in 0..3 -> 0, 3, 5, 8
        picked = select_frames(clip, 4)
        np.testing.assert_array_equal(picked, clip.frames[[0, 3, 5, 8]])

    def test_upsample_repeats(self):
        clip = random_clip(frames=2)
        picked = select_frames(clip, 4)
        np.testing.assert_array_equal(picked, clip.frames[[0, 0, 1, 1]])

    def test_single_frame_request(self):
        clip = random_clip(frames=5)
        np.testing.assert_array_equal(select_frames(clip, 1), clip.frames[[0]])


class TestResizeBilinear:
    def test_same_size_is_copy(self):
        frame = random_clip(frames=1, height=4, width=4).frames[0]
        out = resize_bilinear(frame, 4)
        np.testing.assert_array_equal(out, frame)
        assert out is not frame

    def test_constant_frame_stays_constant(self):
        frame = np.full((6, 6, 3), 77, dtype=np.uint8)
        out = resize_bilinear(frame, 4)
        assert out.shape == (4, 4, 3)
        assert np.all(out == 77)

    def test_downscale_by_two_averages_blocks(self):
        # With half-pixel centers, a 2x downscale samples exactly between
        # the four source pixels of each block.
        frame = np.zeros((4, 4, 3), dtype=np.uint8)
        frame[0::2, :, :] = 100
        frame[1::2, :, :] = 200
        out = resize_bilinear(frame, 2)
        assert np.all(out == 150)

    def test_zero_side_raises(self):
        with pytest.raises(ZeroDimension):
            resize_bilinear(np.zeros((4, 4, 3), dtype=np.uint8), 0)


class TestNormalize:
    def test_formula(self):
        cfg = PreprocessConfig(t_frames=1, side=2, mean=(10.0, 20.0, 30.0), std=(2.0, 4.0, 5.0))
        clip = np.full((1, 2, 2, 3), 40, dtype=np.uint8)
        out = normalize(clip, cfg)
        np.testing.assert_allclose(out[0, 0, 0], [15.0, 5.0, 2.0], atol=1e-6)
        assert out.dtype == np.float32

    def test_preprocess_shape(self):
        cfg = PreprocessConfig(t_frames=3, side=4)
        out = preprocess_clip(random_clip(frames=8, height=6, width=6), cfg)
        assert out.data.shape == (3, 4, 4, 3)
        assert out.data.dtype == np.float32


class TestClipStore:
    def write_video(self, tmp_path, game=GameId.CSGO, name="v.rgbc", seed=0, frames=16):
        folder = tmp_path / game.value
        folder.mkdir(parents=True, exist_ok=True)
        clip = random_clip(frames=frames, seed=seed)
        (folder / name).write_bytes(write_rgbc(clip))
        return clip

    def store(self, tmp_path):
        return ClipStore(data_root=tmp_path, preprocess=PreprocessConfig(t_frames=2, side=4))

    def test_resolve_with_and_without_suffix(self, tmp_path):
        self.write_video(tmp_path)
        store = self.store(tmp_path)
        direct = store.resolve(GameId.CSGO, "v.rgbc")
        stemmed = store.resolve(GameId.CSGO, "v")
        assert direct == stemmed

    def test_resolve_missing_raises(self, tmp_path):
        store = self.store(tmp_path)
        with pytest.raises(DataResolutionError):
            store.resolve(GameId.CSGO, "nope")

    def test_duration_and_clip_tensor(self, tmp_path):
        clip = self.write_video(tmp_path)
        store = self.store(tmp_path)
        assert store.duration(GameId.CSGO, "v.rgbc") == clip.duration_s
        ref = ClipRef("v.rgbc", 1.0, EventLabel.KILL, GameId.CSGO, "train")
        tensor = store.clip_tensor(ref)
        assert tensor.data.shape == (2, 4, 4, 3)
        assert tensor.provenance == ref

    def test_seconds_match_a_whole_read(self, tmp_path):
        clip = self.write_video(tmp_path, frames=18)  # 4.5 s at 4 fps
        whole = read_rgbc((tmp_path / "CSGO" / "v.rgbc").read_bytes())
        second = self.store(tmp_path).seconds(GameId.CSGO, "v")
        for start_s in [-2.0, -0.5, *np.arange(0.0, 7.0, 0.5)]:  # both ends clamp
            got, want = second(start_s), extract_second(whole, start_s)
            np.testing.assert_array_equal(got.frames, want.frames)
            assert got.fps == want.fps == clip.fps

    def test_sparse_session_is_not_read_whole(self, tmp_path):
        # 1360 frames of 128x128 at 30 fps: about 64 MB, all holes on disk
        folder = tmp_path / "CSGO"
        folder.mkdir()
        with open(folder / "big.rgbc", "wb") as fh:
            fh.write(b"RGBC" + struct.pack("<5I", 128, 128, 1360, 30, 1))
            fh.truncate(24 + 1360 * 128 * 128 * 3)
        store = self.store(tmp_path)
        tracemalloc.start()
        try:
            duration = store.duration(GameId.CSGO, "big")
            first = store.raw_second(GameId.CSGO, "big", 0.0)
            last = store.raw_second(GameId.CSGO, "big", duration - 1.0)
            touched = first.frames.any() or last.frames.any()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert duration == 1360 / 30
        assert first.frames.shape == last.frames.shape == (30, 128, 128, 3)
        assert not touched
        assert peak < 4 * 2**20

    def test_non_rgbc_without_decoder_raises(self, tmp_path):
        folder = tmp_path / "CSGO"
        folder.mkdir()
        (folder / "v.mp4").write_bytes(b"fakevideo")
        store = self.store(tmp_path)
        with pytest.raises(DataResolutionError):
            store.raw_second(GameId.CSGO, "v.mp4", 0.0)


# the child imports the fragreel under test, installed or not
DECODER_SCRIPT = f"""
import sys
sys.path.insert(0, {str(Path(frames.__file__).resolve().parents[1])!r})
import numpy as np
from fractions import Fraction
from fragreel.frames import RawClip, write_rgbc

start = float(sys.argv[2])
frames = np.full((4, 4, 4, 3), int(start) % 256, dtype=np.uint8)
sys.stdout.buffer.write(write_rgbc(RawClip(frames=frames, fps=Fraction(4))))
"""


class TestDecoderSource:
    def make(self, tmp_path, script=DECODER_SCRIPT):
        helper = tmp_path / "decode.py"
        helper.write_text(script)
        return DecoderSource(
            f"{sys.executable} {helper} {{input}} {{start}} {{dur}}", max_procs=2
        )

    def test_fetch_decodes_stream(self, tmp_path):
        decoder = self.make(tmp_path)
        clip = decoder.fetch("ignored.mp4", 7.0, 1.0)
        assert clip.frames.shape == (4, 4, 4, 3)
        assert np.all(clip.frames == 7)

    def test_missing_placeholder_rejected(self):
        with pytest.raises(ValueError):
            DecoderSource("decode {input} {start}")

    def test_nonzero_exit_raises(self, tmp_path):
        decoder = self.make(tmp_path, script="import sys; sys.exit(9)")
        with pytest.raises(DataResolutionError):
            decoder.fetch("x.mp4", 0.0, 1.0)

    def test_store_routes_non_rgbc_through_decoder(self, tmp_path):
        folder = tmp_path / "CSGO"
        folder.mkdir()
        (folder / "v.mp4").write_bytes(b"fakevideo")
        store = ClipStore(
            data_root=tmp_path,
            preprocess=PreprocessConfig(t_frames=2, side=4),
            decoder=self.make(tmp_path),
        )
        raw = store.raw_second(GameId.CSGO, "v.mp4", 3.0)
        assert np.all(raw.frames == 3)
