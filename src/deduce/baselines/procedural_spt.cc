#include "deduce/baselines/procedural_spt.h"

#include "deduce/net/codec.h"

namespace deduce {

namespace {
constexpr uint16_t kAnnounceMsg = 100;
}  // namespace

void ProceduralSptApp::Start(NodeContext* ctx) {
  if (ctx->id() == root_) {
    distance_ = 0;
    parent_ = root_;
    Announce(ctx);
  }
}

void ProceduralSptApp::Announce(NodeContext* ctx) {
  if (announce_pending_) return;
  announce_pending_ = true;
  // Small randomized delay batches bursts of improvements (standard
  // suppression trick; also what TinyOS code does to avoid collisions).
  ctx->SetTimer(announce_delay_ + ctx->rng().Uniform(0, announce_delay_),
                [this, ctx] { SendAnnouncement(ctx); });
}

void ProceduralSptApp::SendAnnouncement(NodeContext* ctx) {
  announce_pending_ = false;
  PayloadWriter w;
  w.WriteInt(distance_);
  Message m;
  m.type = kAnnounceMsg;
  m.payload = w.Take();
  for (NodeId v : ctx->neighbors()) ctx->Send(v, m);
}

void ProceduralSptApp::OnMessage(NodeContext* ctx, const Message& msg) {
  if (msg.type != kAnnounceMsg) return;
  PayloadReader r(msg.payload);
  StatusOr<int64_t> d = r.ReadInt();
  if (!d.ok()) return;
  int candidate = static_cast<int>(*d) + 1;
  if (distance_ == -1 || candidate < distance_) {
    distance_ = candidate;
    parent_ = msg.src;
    Announce(ctx);
  }
}

ProceduralSptResult RunProceduralSpt(Network* network, NodeId root) {
  std::vector<ProceduralSptApp*> apps;
  for (int i = 0; i < network->node_count(); ++i) {
    auto app = std::make_unique<ProceduralSptApp>(root);
    apps.push_back(app.get());
    network->SetApp(i, std::move(app));
  }
  network->Start();
  network->sim().Run();

  ProceduralSptResult out;
  for (ProceduralSptApp* app : apps) {
    out.distance.push_back(app->distance());
    out.parent.push_back(app->parent());
  }
  out.total_messages = network->stats().TotalMessages();
  out.total_bytes = network->stats().TotalBytes();
  return out;
}

}  // namespace deduce
